"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the code paths under test: distances
come from adaptive quadrature of the raw density formulas, determinants
and solves from dense LAPACK factorizations, and the random-walk
normalizing constant at n = 2 from brute-force two-dimensional
integration of the joint density. Two routes that no production code
takes live here too, built from the package's public names only: the
Hellinger distance of two tabulated densities (:func:`hellinger_grid`,
with :func:`common_support`), and the posterior under one new prior by
reweighting (:func:`reweight_posterior`), which evaluates both priors with
``log_prior_density`` and shares no tilt code with the reweighting sweep.
:func:`reweighted_distances_longdouble` evaluates the sweep's trapezoid
formula in long double from each family's density, sharing no code with
it either. :func:`write_density_csv` writes the posterior CSVs the tests read, and
:func:`hellinger_analytic` is the package's closed-form distance of two validated
priors, which no production path needs. :func:`rw1_hellinger_longdouble` gives the exact
random-walk engine's distances in long double from a dense scan of each prior's own
posterior, with none of the engine's window or lattice code, and
:func:`rw1_hellinger_cumulants` gives them to third order in the prior change from the base
posterior's cumulants, cheap enough at any series length; :func:`rw1_local_limit` gives the
ratios' limits as the change goes to 0 from the same posterior rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate
from scipy.fft import dct
from scipy.linalg import eigh
from scipy.special import gammaln, polygamma

from priorscan import (
    TAIL_GUARD,
    DensityGrid,
    Family,
    PriorSpec,
    Scale,
    log_prior_density,
    normalize_grid,
)
from priorscan.families import hellinger_closed_form


def log_normal_pdf(x, mu, lam):
    return 0.5 * (np.log(lam) - np.log(2.0 * np.pi)) - 0.5 * lam * (x - mu) ** 2


def log_gamma_pdf(x, a, b):
    return a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(x) - b * x


class AlignmentError(ValueError):
    """Two density grids cannot be brought onto a common support."""


def common_support(g0, g1):
    """Resample two grids onto the intersection of their support ranges.

    Identical supports are returned unchanged. Otherwise the square root of
    each density is interpolated by four-point Lagrange polynomials
    (:func:`_interp_cubic`) onto an equispaced grid over the overlap, with as
    many points as the finer input, and squared. Values are carried over
    without renormalization, so the aligned grids still represent the
    original densities restricted to the overlap (density outside a grid's
    range is treated as zero mass).
    """
    if g0.scale is not g1.scale:
        raise AlignmentError(f"cannot align grids on scales {g0.scale} and {g1.scale}")
    if np.array_equal(g0.support, g1.support):
        return g0, g1
    lo = max(g0.support[0], g1.support[0])
    hi = min(g0.support[-1], g1.support[-1])
    if not (hi > lo):
        raise AlignmentError(
            f"support ranges [{g0.support[0]}, {g0.support[-1]}] and "
            f"[{g1.support[0]}, {g1.support[-1]}] do not overlap"
        )
    m = max(len(g0), len(g1))
    xs = np.linspace(lo, hi, m)
    v0 = _interp_cubic(xs, g0.support, np.sqrt(g0.values)) ** 2
    v1 = _interp_cubic(xs, g1.support, np.sqrt(g1.values)) ** 2
    if not np.any(v0 > 0.0) or not np.any(v1 > 0.0):
        raise AlignmentError("no density mass inside the overlapping support range")
    return DensityGrid(xs, v0, g0.scale), DensityGrid(xs, v1, g1.scale)


def _interp_cubic(x, xp, fp):
    """``fp`` at ``x`` (inside ``[xp[0], xp[-1]]``) from the cubic through the four nearest
    nodes ``xp``, or linearly on fewer. Linear interpolation of either grid's density, its
    square root or its log is second order, so at tiny distances on supports offset by a
    fraction of a node the two grids' errors do not cancel: gamma (3, 2) vs (3 + 4.5e-6, 2)
    on 4001-point log grids came out 3.5e-3 to 3.8e-3 relative high in all three forms."""
    if len(xp) < 4:
        return np.interp(x, xp, fp)
    k = np.clip(np.searchsorted(xp, x) - 2, 0, len(xp) - 4)[:, None] + np.arange(4)
    nodes, out = xp[k], np.zeros(len(x))
    for i in range(4):
        others = [j for j in range(4) if j != i]
        out += np.prod((x[:, None] - nodes[:, others]) / (nodes[:, [i]] - nodes[:, others]), axis=1) * fp[k[:, i]]
    return out


def _mass_beyond(grid, lo, hi):
    """Trapezoidal mass of ``grid`` on its own nodes below ``lo`` and above ``hi``."""
    x, v = grid.support, grid.values
    at_lo, at_hi = np.interp([lo, hi], x, v)
    below, above = x < lo, x > hi
    return float(np.trapezoid(np.r_[v[below], at_lo], np.r_[x[below], lo])
                 + np.trapezoid(np.r_[at_hi, v[above]], np.r_[hi, x[above]]))


def hellinger_grid(g0, g1):
    """Hellinger distance between two tabulated, normalized densities.

    Grids on different supports are aligned with :func:`common_support`.
    ``H^2 = 1/2 * integral of (sqrt(p0) - sqrt(p1))^2`` over the common
    support, plus half the mass each grid has outside it, integrated on that
    grid's own nodes. Unlike ``sqrt(1 - BC)``, this stays accurate for
    distances far below sqrt(machine epsilon) on one support. On different
    supports the re-interpolation limits small distances (on 4001-point grids,
    gamma (3, 2) vs (3 + 4.5e-6, 2) comes out 8.1e-8 relative high, normal
    (0, 1) vs (2.8e-6, 1) 1.1e-9); for two priors of one family use
    :func:`hellinger_analytic`.
    """
    a0, a1 = common_support(g0, g1)
    lo, hi = a0.support[0], a0.support[-1]
    h2 = 0.5 * np.trapezoid((np.sqrt(a0.values) - np.sqrt(a1.values)) ** 2, a0.support)
    h2 += 0.5 * (_mass_beyond(g0, lo, hi) + _mass_beyond(g1, lo, hi))
    return float(np.sqrt(min(1.0, max(0.0, h2))))


def write_density_csv(path, grid):
    """Write a grid as ``x,density`` rows with the bytes ``csv.writer`` gives:
    each float as its ``repr``, CRLF line ends."""
    rows = zip(grid.support.tolist(), grid.values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,density\r\n" + "".join(f"{x!r},{v!r}\r\n" for x, v in rows))


def reweight_posterior(inp, new_prior):
    """The posterior of ``inp`` moved to ``new_prior`` by the prior ratio, normalized.

    Support points below ``TAIL_GUARD`` of the peak are zeroed, as the sweep
    zeroes them; elsewhere the log density is ``log p + log pi_new - log pi_base``,
    both priors evaluated in full on the grid's own scale.
    """
    grid = inp.posterior
    keep = grid.values >= TAIL_GUARD * grid.values.max()
    x = grid.support[keep]
    log_p = (np.log(grid.values[keep]) + log_prior_density(new_prior, x, grid.scale)
             - log_prior_density(inp.base_prior, x, grid.scale))
    out = np.zeros_like(grid.values)
    out[keep] = np.exp(log_p - log_p.max())
    return normalize_grid(DensityGrid(grid.support, out, grid.scale))


def reweighted_distances_longdouble(inp, gamma1, gamma2, chunk=64):
    """Hellinger distances between ``inp``'s posterior and its reweightings to
    the base-family priors ``(gamma1[i], gamma2[i])``, in long double.

    The formula is the sweep's: points below ``TAIL_GUARD`` of the peak are
    dropped, trapezoid weights integrate, the moved posterior is normalized
    over the kept points and the base over the whole grid, and ``H^2 = 1/2
    sum w (sqrt(p_new) - sqrt(p_base))^2``. The prior log ratio is written
    out from each family's density, up to its constant.
    """
    ld = np.longdouble
    grid = inp.posterior
    keep = grid.values >= TAIL_GUARD * grid.values.max()
    support = grid.support.astype(ld)
    weights = np.zeros(support.size, dtype=ld)
    weights[1:] += 0.5 * np.diff(support)
    weights[:-1] += 0.5 * np.diff(support)
    values = grid.values.astype(ld)
    x, w = support[keep], weights[keep]
    root_base = np.sqrt(values[keep] / (weights @ values))
    log_base = np.log(values[keep])
    theta = np.exp(x) if grid.scale is Scale.LOG_PARAMETER else x
    a0, b0 = (ld(v) for v in inp.base_prior.point.as_tuple())
    gamma1 = np.asarray(gamma1, dtype=ld)[:, None]
    gamma2 = np.asarray(gamma2, dtype=ld)[:, None]
    out = np.empty(gamma1.size)
    for lo in range(0, gamma1.size, chunk):
        a1, b1 = gamma1[lo : lo + chunk], gamma2[lo : lo + chunk]
        if inp.base_prior.family is Family.NORMAL:
            log_ratio = 0.5 * (b0 * (theta - a0) ** 2 - b1 * (theta - a1) ** 2)
        else:
            log_ratio = (a1 - a0) * np.log(theta) - (b1 - b0) * theta
        log_new = log_base + log_ratio
        new = np.exp(log_new - log_new.max(axis=1, keepdims=True))
        root_new = np.sqrt(new / (new @ w)[:, None])
        out[lo : lo + chunk] = np.sqrt(0.5 * ((root_new - root_base) ** 2 @ w))
    return out


def hellinger_analytic(family, p0, p1):
    """Closed-form Hellinger distance ``sqrt(1 - BC)`` between two priors of
    ``family`` (``priorscan.families.hellinger_closed_form``), both points validated."""
    PriorSpec(family, p0), PriorSpec(family, p1)  # each validates its point
    return float(hellinger_closed_form(family, *p0.as_tuple(), *p1.as_tuple()))


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


def _rw1_s_longdouble(y, kappa, us):
    """``S(u) = kappa^2/2 sum_k yhat_k^2 / (e^u lambda_k + kappa) - 1/2 sum_k log(e^u lambda_k
    + kappa)`` in long double, from the closed-form eigenvalues and the dense DCT basis."""
    ld, n = np.longdouble, y.size
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)).astype(ld)
    yhat2 = _dense_weights_of(np.asarray(y, dtype=float).tobytes()).astype(ld)
    kappa, out = ld(kappa), np.empty(us.size, dtype=ld)
    for lo in range(0, us.size, 512):
        d = np.exp(us[lo : lo + 512, None]) * lam + kappa
        out[lo : lo + 512] = 0.5 * kappa**2 * (yhat2 / d).sum(axis=1) - 0.5 * np.log(d).sum(axis=1)
    return out


def rw1_hellinger_longdouble(y, kappa, anchor, points, drop=80.0, per_window=128):
    """Posterior Hellinger distances of the random-walk model (data ``y``, noise precision
    ``kappa``) between the gamma prior ``anchor`` and each of ``points``, in long double.

    A prior's log posterior of ``u = log tau`` is ``(alpha + (n-1)/2) u - beta e^u + S(u)``
    (:func:`_rw1_s_longdouble`). Each prior's own (the anchor, the point and their
    midpoint) is scanned over [-300, 300] in steps of 1/16; its window runs from the scan
    node before the first within ``drop`` of its best to the node after the last. A mode
    within 60 of the peak is taken in even if the scan reads it 20 nats low (one of log-tau
    sd 0.01, a shape near 1e4, reads at most 5 low). A direction sums on the hull of its
    three windows, with ``per_window`` intervals across the narrowest. With ``t`` the log
    prior ratio, ``BC = E[e^(t/2)] / E[e^t]^(1/2)`` under the anchor's normalized posterior,
    each ``log E`` a log-sum-exp over the log weights, so no weight underflows where another
    prior has its mass. Where ``H^2 < 0.05`` that difference cancels, and ``log BC = log1p(-V
    / E[e^t]) / 2`` instead, ``V`` the variance of ``expm1(t/2)`` summed about its mean: no
    term cancels however small ``H`` is. None of the engine's window, lattice or quadrature
    code runs.
    """
    ld, n = np.longdouble, np.asarray(y).size
    scan = np.arange(-4800, 4801).astype(ld) / 16
    s_scan = _rw1_s_longdouble(y, kappa, scan)

    def log_posterior(prior, us, s):
        a, b = (ld(v) for v in prior)
        return (a + ld(n - 1) / 2) * us - b * np.exp(us) + s

    def window(prior):
        g = log_posterior(prior, scan, s_scan)
        near = np.flatnonzero(g >= g.max() - drop)
        return scan[max(near[0] - 1, 0)], scan[min(near[-1] + 1, scan.size - 1)]

    def log_sum_exp(x):
        top = x.max()
        return top + np.log(np.exp(x - top).sum())

    a0, own, out = np.asarray(anchor, dtype=ld), window(anchor), []
    for point in np.asarray(points, dtype=ld).reshape(-1, 2):
        windows = [own, window(point), window((a0 + point) / 2)]
        lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
        step = min(w[1] - w[0] for w in windows) / per_window
        us = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
        log_w = log_posterior(anchor, us, _rw1_s_longdouble(y, kappa, us))
        log_w[[0, -1]] -= np.log(ld(2))
        log_w -= log_sum_exp(log_w)
        da, db = point - a0
        t = da * us - db * np.exp(us)
        t -= t @ np.exp(log_w)
        log_bc = log_sum_exp(t / 2 + log_w) - log_sum_exp(t + log_w) / 2
        if log_bc > -0.05:  # h < 0.22: the posteriors overlap, and t stays small where they have mass
            w, e = np.exp(log_w), np.expm1(t / 2)
            var = (e - e @ w) ** 2 @ w
            log_bc = np.log1p(-var / ((1 + e @ w) ** 2 + var)) / 2
        out.append(float(np.sqrt(-np.expm1(min(log_bc, ld(0))))))
    return np.array(out)


def _rw1_centred_statistics(y, kappa, anchor, n_nodes, drop):
    """The statistics ``T = (u, -e^u)`` of ``u = log tau``, centred, on the nodes of a
    trapezoid rule for the random-walk posterior (data ``y``, noise precision ``kappa``)
    under the gamma prior ``anchor``, and the rule's normalized weights.

    ``S`` comes from scipy's orthonormal DCT of ``y`` and a direct sum of ``log(tau lambda_k
    + kappa)``, and the rule has ``n_nodes`` nodes over the nodes of a scan of [-50, 50] in
    steps of 1/2 within ``drop`` of its best, and one more a side. None of the engine's code
    runs.
    """
    y = np.asarray(y, dtype=float)
    n, (a, b) = y.size, anchor
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    yhat2 = dct(y, norm="ortho") ** 2

    def log_posterior(us):
        out = np.empty(us.size)
        for lo in range(0, us.size, 256):
            u = us[lo : lo + 256]
            d = np.exp(u)[:, None] * lam + kappa
            s = 0.5 * kappa**2 * (yhat2 / d).sum(axis=1) - 0.5 * np.log(d).sum(axis=1)
            out[lo : lo + 256] = (a + (n - 1) / 2.0) * u - b * np.exp(u) + s
        return out

    scan = np.arange(-100, 101) * 0.5
    near = np.flatnonzero((g := log_posterior(scan)) >= g.max() - drop)
    if near[0] == 0 or near[-1] == scan.size - 1:
        raise ValueError(f"the posterior of prior {tuple(anchor)} reaches the scan's edge")
    us = np.linspace(scan[near[0] - 1], scan[near[-1] + 1], n_nodes)
    w = np.exp((g := log_posterior(us)) - g.max())
    w[[0, -1]] *= 0.5
    w /= w.sum()
    t = np.vstack([us, -np.exp(us)])
    return t - (t @ w)[:, None], w


def rw1_hellinger_cumulants(y, kappa, anchor, points, n_nodes=2001, drop=60.0):
    """Posterior Hellinger distances of the random-walk model between the gamma prior
    ``anchor`` and each of ``points``, to third order in the prior change.

    A prior ratio tilts the posterior of ``u = log tau`` by ``d . T``, with ``d`` the change of
    ``(alpha, beta)`` and ``T = (u, -e^u)``, so the posteriors form an exponential family in
    ``T``: ``log BC = A(eta + d/2) - (A(eta) + A(eta + d)) / 2``, ``A`` its log partition
    function, and ``H^2 = 1 - BC = d' K2 d / 8 + K3[d, d, d] / 16 + O(|d|^4)``, ``K2`` and
    ``K3`` the second and third cumulants of ``T`` under the anchor's posterior, taken from
    the rule of :func:`_rw1_centred_statistics`.
    """
    c, w = _rw1_centred_statistics(y, kappa, anchor, n_nodes, drop)
    k2, k3 = (c * w) @ c.T, np.einsum("in,jn,kn,n->ijk", c, c, c, w)
    d = np.asarray(points, dtype=float).reshape(-1, 2) - np.asarray(anchor, dtype=float)
    h2 = np.einsum("pi,ij,pj->p", d, k2, d) / 8.0 + np.einsum("pi,pj,pk,ijk->p", d, d, d, k3) / 16.0
    return np.sqrt(h2)


def rw1_local_limit(y, kappa, prior, n_nodes=2001, drop=60.0):
    """The least and the greatest ratio ``H_post / H_prior`` of the random-walk model about
    the gamma prior ``prior = (a, b)`` as the prior change ``d`` goes to 0: ``sqrt`` of the
    least and greatest eigenvalue of ``C_prior^-1 C_post``.

    To second order both distances are ``H^2 = d' C d / 8``, ``C`` the covariance of ``T =
    (log tau, -tau)``: ``C_post`` is the ``K2`` of :func:`rw1_hellinger_cumulants` and
    ``C_prior = [[psi1(a), -1/b], [-1/b, a/b^2]]``, the gamma prior's own.
    """
    c, w = _rw1_centred_statistics(y, kappa, prior, n_nodes, drop)
    a, b = prior
    c_prior = np.array([[polygamma(1, a), -1.0 / b], [-1.0 / b, a / b**2]])
    lo, hi = eigh((c * w) @ c.T, c_prior, eigvals_only=True)
    return math.sqrt(lo), math.sqrt(hi)
