import math
import re
import warnings

import numpy as np
import pytest

from oracles import (
    hellinger_analytic,
    hellinger_grid,
    reweight_posterior,
    reweighted_distances_longdouble,
)
from priorscan import (
    TAIL_GUARD,
    DegeneratePosteriorWarning,
    DensityGrid,
    DomainError,
    Family,
    ParamPoint,
    PosteriorInput,
    PriorSpec,
    ReweightingError,
    Scale,
    circular_sensitivity,
    compute_grid,
    normalize_grid,
    tabulate_prior,
)
from priorscan import reweight
from priorscan.contour import GRID_DTYPE, CardinalModuli, PolarGrid
from priorscan.grids import trapezoid_mass
from priorscan.reweight import DEGENERATE_GUARD, _BLOCK_CELLS, _INTERPOLATE_FROM, _posterior_distances


def uniform_grid(lo, hi, n=9, scale=Scale.NATURAL):
    support = np.linspace(lo, hi, n)
    values = np.full(n, 1.0 / (hi - lo))
    return DensityGrid(support, values, scale)


def flat_likelihood_input(spec, scale=Scale.NATURAL):
    """Posterior equals the prior when the likelihood carries no information."""
    return PosteriorInput(tabulate_prior(spec, scale), spec, scale)


NORMAL_SPEC = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))
GAMMA_SPEC = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))


@pytest.fixture
def interpolant_runs(monkeypatch):
    """Whether each call of the sweep's interpolant settled (it returns None when not)."""
    runs = []
    real = reweight._interpolated_distances

    def spy(*args):
        found = real(*args)
        runs.append(found is not None)
        return found

    monkeypatch.setattr(reweight, "_interpolated_distances", spy)
    return runs


def by_rows(inp, gamma1, gamma2):
    """The sweep with every direction by rows, however many there are."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reweight, "_INTERPOLATE_FROM", math.inf)
        return _posterior_distances(inp, gamma1, gamma2)


def conjugate_input(family, seed, n_points=8001):
    """A random prior and its conjugate posterior for a short sample, as the
    benchmark draws them: gamma on a normal precision, tabulated on the log
    scale, or normal on a normal mean, on the natural scale."""
    rng = np.random.default_rng(seed)
    if family is Family.GAMMA:
        prior = (rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0))
        x = rng.normal(0.0, 1.0 / math.sqrt(rng.uniform(0.5, 4.0)), rng.integers(6, 40))
        post, scale = (prior[0] + x.size / 2.0, prior[1] + float(x @ x) / 2.0), Scale.LOG_PARAMETER
    else:
        prior = (rng.normal(0.0, 2.0), rng.uniform(0.05, 2.0))
        kappa, n = rng.uniform(0.5, 4.0), rng.integers(3, 40)
        x = rng.normal(rng.normal(prior[0], 1.0 / math.sqrt(prior[1])), 1.0 / math.sqrt(kappa), n)
        precision = prior[1] + n * kappa
        post, scale = ((prior[1] * prior[0] + kappa * x.sum()) / precision, precision), Scale.NATURAL
    grid = tabulate_prior(PriorSpec(family, ParamPoint(*post)), scale, n_points)
    return PosteriorInput(grid, PriorSpec(family, ParamPoint(*prior)), scale)


class TestPosteriorInput:
    def test_scale_mismatch(self):
        g = tabulate_prior(GAMMA_SPEC, Scale.LOG_PARAMETER)
        with pytest.raises(DomainError):
            PosteriorInput(g, GAMMA_SPEC, Scale.NATURAL)

    @pytest.mark.parametrize("lo", [-1.0, 0.0])
    def test_gamma_natural_support_must_be_positive(self, lo):
        g = uniform_grid(lo, 1.0)
        with pytest.raises(DomainError, match="gamma posterior support must be positive"):
            PosteriorInput(g, GAMMA_SPEC, Scale.NATURAL)
        PosteriorInput(g, NORMAL_SPEC, Scale.NATURAL)

    def test_normal_log_parametrization_rejected(self):
        g = uniform_grid(-1.0, 1.0, scale=Scale.LOG_PARAMETER)
        with pytest.raises(DomainError):
            PosteriorInput(g, NORMAL_SPEC, Scale.LOG_PARAMETER)

    def test_unnormalized_grid_rejected(self):
        g = uniform_grid(0.5, 10.5)
        bad = DensityGrid(g.support, g.values * 2.0, g.scale)
        with pytest.raises(DomainError):
            PosteriorInput(bad, GAMMA_SPEC, Scale.NATURAL)


class TestReweightPosterior:
    """The single-prior reweighting oracle the batched sweep is checked against."""

    def test_identity_prior_is_a_fixed_point(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        out = reweight_posterior(inp, NORMAL_SPEC)
        assert np.array_equal(out.support, inp.posterior.support)
        assert out.scale is inp.posterior.scale
        kept = inp.posterior.values >= 1e-12 * inp.posterior.values.max()
        assert np.allclose(out.values[kept], inp.posterior.values[kept], rtol=1e-10)

    def test_output_is_normalized(self):
        inp = flat_likelihood_input(GAMMA_SPEC, Scale.LOG_PARAMETER)
        out = reweight_posterior(inp, PriorSpec(Family.GAMMA, ParamPoint(1.3, 0.4)))
        assert abs(trapezoid_mass(out) - 1.0) <= 1e-10

    def test_negligible_tail_is_zeroed(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        out = reweight_posterior(inp, PriorSpec(Family.NORMAL, ParamPoint(0.5, 1.0)))
        dead = inp.posterior.values < TAIL_GUARD * inp.posterior.values.max()
        assert dead.any()
        assert np.all(out.values[dead] == 0.0)

    def test_mass_moves_toward_the_new_prior(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        out = reweight_posterior(inp, PriorSpec(Family.NORMAL, ParamPoint(0.5, 1.0)))
        mean = np.trapezoid(out.support * out.values, out.support)
        assert 0.1 < mean < 0.5

    def test_truncated_exponential_closed_form(self):
        # a flat posterior reweighted by an exponential-ratio prior is a
        # truncated exponential; check pointwise against the closed form
        grid = uniform_grid(0.5, 4.5, n=4001)
        base = PriorSpec(Family.GAMMA, ParamPoint(1.0, 1.0))
        new = PriorSpec(Family.GAMMA, ParamPoint(1.0, 2.5))
        out = reweight_posterior(PosteriorInput(grid, base, Scale.NATURAL), new)
        rate = 2.5 - 1.0
        x = out.support
        expected = rate * np.exp(-rate * (x - 0.5)) / -np.expm1(-rate * 4.0)
        assert np.allclose(out.values, expected, rtol=1e-6)



def posterior_distance(inp, new_prior):
    """One prior through the batched reweighting sweep."""
    return float(_posterior_distances(inp, [new_prior.point.gamma1], [new_prior.point.gamma2])[0])


class TestPosteriorDistance:
    def test_identity_distance_is_negligible(self):
        inp = flat_likelihood_input(GAMMA_SPEC, Scale.LOG_PARAMETER)
        assert posterior_distance(inp, GAMMA_SPEC) <= 1e-7

    def test_flat_likelihood_normal_matches_analytic(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        new = PriorSpec(Family.NORMAL, ParamPoint(0.3, 1.2))
        h = posterior_distance(inp, new)
        assert abs(h - hellinger_analytic(Family.NORMAL, NORMAL_SPEC.point, new.point)) <= 1e-6

    def test_flat_likelihood_gamma_matches_analytic(self):
        inp = flat_likelihood_input(GAMMA_SPEC, Scale.LOG_PARAMETER)
        new = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.68))
        h = posterior_distance(inp, new)
        assert abs(h - hellinger_analytic(Family.GAMMA, GAMMA_SPEC.point, new.point)) <= 5e-5

    def test_parametrization_does_not_matter(self):
        # the Jacobian cancels in the prior ratio, so natural-scale and
        # log-scale runs of the same problem must agree
        base = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        new = PriorSpec(Family.GAMMA, ParamPoint(2.3, 1.15))
        h_nat = posterior_distance(flat_likelihood_input(base, Scale.NATURAL), new)
        h_log = posterior_distance(flat_likelihood_input(base, Scale.LOG_PARAMETER), new)
        expected = hellinger_analytic(Family.GAMMA, base.point, new.point)
        assert abs(h_nat - expected) <= 2e-4
        assert abs(h_log - expected) <= 1e-5
        assert abs(h_nat - h_log) <= 2e-4

    def test_unnormalized_base_is_renormalized_defensively(self):
        # feed a posterior whose mass is off by just under the input gate;
        # the distance must not inherit the sqrt-amplified defect
        g = tabulate_prior(NORMAL_SPEC, Scale.NATURAL)
        skew = DensityGrid(g.support, g.values * (1.0 + 9e-7), g.scale)
        inp = PosteriorInput(skew, NORMAL_SPEC, Scale.NATURAL)
        assert posterior_distance(inp, NORMAL_SPEC) <= 1e-6

    @pytest.mark.parametrize("near", [0, _INTERPOLATE_FROM])
    @pytest.mark.parametrize(
        "support,base,shapes,rates,settles",
        [
            # equal interior weights; on this flat posterior the random tilts
            # that cannot make it degenerate still span a box so wide that
            # the interpolant does not settle (see TestInterpolant)
            (np.linspace(0.5, 600.5, 2001), (1.0, 1.0), (0.5, 5.0), (1e-3, 1e3), False),
            # trapezoid weights spanning five orders of magnitude
            (np.geomspace(1e-2, 1e3, 2001), (1.0, 0.1), (1.0, 1e5), (1e-2, 1e2), True),
        ],
    )
    def test_degenerate_count_matches_one_direction_at_a_time(
        self, support, base, shapes, rates, settles, near, interpolant_runs
    ):
        # ``near`` directions close to the base join the sweep: with them it
        # passes the crossover, and the interpolant takes the directions it
        # can (or none, if it does not settle) and rows the rest
        grid = normalize_grid(DensityGrid(support, np.ones_like(support), Scale.NATURAL))
        inp = PosteriorInput(grid, PriorSpec(Family.GAMMA, ParamPoint(*base)), Scale.NATURAL)
        rng = np.random.default_rng(1)
        n = 100
        assert n > _BLOCK_CELLS // support.size
        gamma1 = np.r_[np.exp(rng.uniform(*np.log(shapes), n)), base[0] * rng.uniform(1.0, 1.001, near)]
        gamma2 = np.r_[np.exp(rng.uniform(*np.log(rates), n)), base[1] * rng.uniform(1.0, 1.001, near)]

        occupied = []
        for g1, g2 in zip(gamma1, gamma2):
            out = reweight_posterior(inp, PriorSpec(Family.GAMMA, ParamPoint(g1, g2)))
            occupied.append(np.count_nonzero(out.values > DEGENERATE_GUARD * out.values.max()))
        occupied = np.array(occupied)
        few = int(np.count_nonzero(occupied < 3))
        assert 0 < few < n

        expected = f"on {occupied.min()} support point(s) in {few} of {n + near} direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)):
            _posterior_distances(inp, gamma1, gamma2)
        assert interpolant_runs == ([settles] if near else [])


class TestBasePriorFloor:
    """The sweep refuses a posterior that carries mass where the base prior's
    natural-scale density is below 1e-300 (log -690.78)."""

    # gamma (2, 1) has the natural log density log(theta) - theta: above the floor at
    # theta = exp(-690.7), below it at exp(-690.8); the density of log(theta) there
    # is one log(theta) lower, far below, and exp(-800) underflows to theta = 0
    @pytest.mark.parametrize("left,refused", [(-690.7, False), (-690.8, True), (-800.0, True)])
    def test_floor_is_on_the_natural_density_of_a_log_grid(self, left, refused):
        base = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        inp = PosteriorInput(uniform_grid(left, -689.0, scale=Scale.LOG_PARAMETER), base, Scale.LOG_PARAMETER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(ReweightingError, match=r"base prior underflows \(< 1e-300\) at support point -?\d"):
                    _posterior_distances(inp, [2.1], [1.0])
            else:
                assert np.isfinite(_posterior_distances(inp, [2.1], [1.0])).all()

    @pytest.mark.parametrize("width,refused", [(37.1, False), (37.3, True)])
    def test_floor_of_a_normal_base(self, width, refused):
        # the unit normal's log density -log(2 pi) / 2 - u^2 / 2 reaches the floor at |u| = 37.14
        inp = PosteriorInput(uniform_grid(-width, width), NORMAL_SPEC, Scale.NATURAL)
        if refused:
            with pytest.raises(ReweightingError, match="base prior underflows"):
                _posterior_distances(inp, [0.1], [1.0])
        else:
            assert np.isfinite(_posterior_distances(inp, [0.1], [1.0])).all()


class TestShiftBound:
    """Rows whose tilt reaches far past +-1/2 shift by their max before the
    exp, and a row whose tilt could overflow has no finite mass. Tiled past
    the crossover, the sweep interpolates the directions it can and runs the
    rest by rows, with the same results, warning and NaNs."""

    # On the normal (0, 1) base, whose support reaches |u| = 10, a mean-100
    # tilt puts its row's max 500 half-log units above its value at the base
    # peak (and exp(-500)**2 underflows), a mean -60 one about 160; precision
    # 1e7 leaves mass on one support point, at the base peak and at the edge.
    PRIORS = [(0.3, 1.2), (-60.0, 0.5), (100.0, 1.0), (0.0, 1e7), (100.0, 1e7)]

    @pytest.mark.parametrize("tiles", [1, _INTERPOLATE_FROM])
    def test_rows_match_one_grid_per_direction(self, tiles, interpolant_runs):
        inp = flat_likelihood_input(NORMAL_SPEC)
        assert inp.posterior.support[-1] >= 10.0
        gamma1, gamma2 = np.tile(np.array(self.PRIORS).T, tiles)
        expected = f"on 1 support point(s) in {2 * tiles} of {5 * tiles} direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)) as record:
            h = _posterior_distances(inp, gamma1, gamma2)
        assert len(record) == 1
        assert interpolant_runs == ([True] if tiles > 1 else [])
        for h_row, point in zip(h.reshape(tiles, -1).T, self.PRIORS):
            moved = reweight_posterior(inp, PriorSpec(Family.NORMAL, ParamPoint(*point)))
            assert np.all(np.abs(h_row - hellinger_grid(moved, inp.posterior)) <= 1e-9)

    @pytest.mark.parametrize("tiles", [1, _INTERPOLATE_FROM])
    def test_non_finite_tilt_gives_nan(self, tiles, interpolant_runs):
        # a non-finite tilt sends the whole sweep through rows; a row with no
        # finite mass is not counted as degenerate
        inp = flat_likelihood_input(NORMAL_SPEC)
        gamma1 = np.tile([0.3, math.nan, math.inf, 100.0], tiles)
        gamma2 = np.tile([1.2, 1.0, 1.0, -math.inf], tiles)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", DegeneratePosteriorWarning)
            h = _posterior_distances(inp, gamma1, gamma2).reshape(tiles, -1)
        assert np.isfinite(h[:, 0]).all() and np.isnan(h[:, 1:]).all()
        assert interpolant_runs == []


class TestInterpolant:
    """Past the crossover, directions whose tilt cannot make the posterior
    degenerate come from a Chebyshev interpolant of the centred log-MGF."""

    # 64 directions run by rows only, 200 by the interpolant
    @pytest.mark.parametrize("n_angles", [64, 200])
    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("family,seed", [(Family.GAMMA, 21), (Family.NORMAL, 22)])
    def test_matches_long_double_sweep(self, family, seed, eps, n_angles, interpolant_runs):
        inp = conjugate_input(family, seed)
        grid = compute_grid(inp.base_prior, eps, n_angles=n_angles)
        interpolated = len(grid.points) >= _INTERPOLATE_FROM
        assert interpolated == (n_angles == 200)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        ratios = circular_sensitivity(inp, grid).entries.ratio
        assert interpolant_runs == ([True] if interpolated else [])
        expected = reweighted_distances_longdouble(inp, g1, g2) / eps
        assert np.max(np.abs(ratios / expected - 1.0)) <= 1e-11

    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3, 0.5])
    @pytest.mark.parametrize("family,seed", [(Family.GAMMA, 23), (Family.NORMAL, 24)])
    def test_agrees_with_rows(self, family, seed, eps, interpolant_runs):
        inp = conjugate_input(family, seed)
        grid = compute_grid(inp.base_prior, eps, n_angles=1600)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        h = _posterior_distances(inp, g1, g2)
        assert interpolant_runs == [True]
        rows = by_rows(inp, g1, g2)
        # rows in variance form have no rounding floor; the gap is the
        # interpolant's own error, 3.7e-13 at most here
        assert np.all(np.abs(h / rows - 1.0) <= 1e-11)

    def test_unsettled_coefficients_fall_back_to_rows(self, interpolant_runs):
        # On a flat posterior L(b) along an axis is log(sinh(b) / b), whose
        # complex zeros at i pi k lie close to a wide box of tilts: the
        # coefficients still fall by only about 10% a degree at degree 32.
        support = np.linspace(0.5, 4.5, 2001)
        grid = normalize_grid(DensityGrid(support, np.ones_like(support), Scale.NATURAL))
        inp = PosteriorInput(grid, PriorSpec(Family.GAMMA, ParamPoint(10.0, 10.0)), Scale.NATURAL)
        phi = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        gamma1, gamma2 = 10.0 + 9.0 * np.cos(phi), 10.0 + 5.0 * np.sin(phi)
        h = _posterior_distances(inp, gamma1, gamma2)
        assert interpolant_runs == [False]
        assert np.array_equal(h, by_rows(inp, gamma1, gamma2))

    def test_flat_tilt_box_falls_back_to_rows(self, interpolant_runs):
        # every prior shares the base's rate, so one axis of the box of tilts is flat:
        # the interpolant declines and the sweep goes by rows
        base = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        posterior = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(6.0, 3.0)), Scale.LOG_PARAMETER, 401)
        inp = PosteriorInput(posterior, base, Scale.LOG_PARAMETER)
        phi = -np.pi + 2.0 * np.pi * np.arange(200) / 200
        points = np.zeros(200, GRID_DTYPE).view(np.recarray)
        points.phi, points.point.gamma1, points.point.gamma2 = phi, 2.0 + 0.05 * np.cos(phi), 1.0
        grid = PolarGrid(base, 0.01, points, CardinalModuli(0.05, 0.05, 0.05, 0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = circular_sensitivity(inp, grid).entries.h_post
        assert interpolant_runs == [False]
        assert np.array_equal(h, by_rows(inp, points.point.gamma1, points.point.gamma2))
