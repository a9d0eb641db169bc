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
from priorscan.grids import trapezoid_mass
from priorscan.reweight import DEGENERATE_GUARD, _BLOCK_CELLS, _posterior_distances


def uniform_grid(lo, hi, n=9, scale=Scale.NATURAL):
    support = np.linspace(lo, hi, n)
    values = np.full(n, 1.0 / (hi - lo))
    return DensityGrid(support, values, scale)


def flat_likelihood_input(spec, scale=Scale.NATURAL, n_points=4001):
    """Posterior equals the prior when the likelihood carries no information."""
    return PosteriorInput(tabulate_prior(spec, scale, n_points), spec, scale)


NORMAL_SPEC = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))
GAMMA_SPEC = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))


@pytest.fixture
def row_calls(monkeypatch):
    """The tilts ``(d1, d2)`` and the width of every row sweep run, in order."""
    calls = []
    real = reweight._row_sweep

    def spy(d1, d2, stats, *rest):
        calls.append((d1, d2, stats.shape[1]))
        return real(d1, d2, stats, *rest)

    monkeypatch.setattr(reweight, "_row_sweep", spy)
    return calls


def by_rows(inp, gamma1, gamma2):
    """The sweep with every direction by rows on the full grid."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reweight, "_MIN_INTERVALS", math.inf)
        return _posterior_distances(inp, gamma1, gamma2)


def on_full_grid(inp, row_calls, gamma1, gamma2):
    """Mask of the directions that the recorded sweep ran on every kept point."""
    width = np.count_nonzero(inp.posterior.values >= TAIL_GUARD * inp.posterior.values.max())
    d1, d2 = reweight._tilt(inp.base_prior, gamma1, gamma2)
    full = [(a, b) for a, b, w in row_calls if w == width]
    if not full:
        return np.zeros(d1.size, dtype=bool)
    ((a, b),) = full
    return np.isin(d1, a) & np.isin(d2, b)


def conjugate_case(family, seed):
    """A random prior and its conjugate posterior for a short sample, as the
    benchmark draws them: gamma on a normal precision, tabulated on the log
    scale, or normal on a normal mean, on the natural scale. The sample has
    at least 6 (gamma) or 3 (normal) points, so the likelihood is never flat."""
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
    return prior, post, scale


def conjugate_input(family, seed, n_points=8001):
    """The posterior of :func:`conjugate_case` tabulated on ``n_points``, under its prior."""
    prior, post, scale = conjugate_case(family, seed)
    grid = tabulate_prior(PriorSpec(family, ParamPoint(*post)), scale, n_points)
    return PosteriorInput(grid, PriorSpec(family, ParamPoint(*prior)), scale)


def moved_posterior(family, prior, post, new):
    """The conjugate posterior of the sample behind ``prior -> post`` under the
    prior ``new``, each sum written in differences of nearby values."""
    if family is Family.GAMMA:
        return post[0] + (new[0] - prior[0]), post[1] + (new[1] - prior[1])
    step = new[1] - prior[1]
    precision = post[1] + step
    return post[0] + (step * (new[0] - post[0]) + prior[1] * (new[0] - prior[0])) / precision, precision


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

    @pytest.mark.parametrize("n_points", [2001, 8001])
    @pytest.mark.parametrize(
        "spacing,lo,hi,base,shapes,rates",
        [
            # equal interior weights
            (np.linspace, 0.5, 600.5, (1.0, 1.0), (0.5, 5.0), (1e-3, 1e3)),
            # trapezoid weights spanning five orders of magnitude
            (np.geomspace, 1e-2, 1e3, (1.0, 0.1), (1.0, 1e5), (1e-2, 1e2)),
        ],
    )
    def test_degenerate_count_matches_one_direction_at_a_time(
        self, spacing, lo, hi, base, shapes, rates, n_points, row_calls
    ):
        # 100 random directions and 100 close to the base; on 8001 points the sweep
        # runs strides first, and a direction whose mass sits on the last support
        # point must not settle there
        support = spacing(lo, hi, n_points)
        grid = normalize_grid(DensityGrid(support, np.ones_like(support), Scale.NATURAL))
        inp = PosteriorInput(grid, PriorSpec(Family.GAMMA, ParamPoint(*base)), Scale.NATURAL)
        rng = np.random.default_rng(1)
        n = near = 100
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
        assert (len(row_calls) > 1) == (n_points == 8001)


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
    exp, and a row whose tilt could overflow has no finite mass. On 8001
    points the sweep runs strides first and the full grid takes the
    directions they do not settle, with the same results, warning and NaNs."""

    # On the normal (0, 1) base, whose support reaches |u| = 10, a mean-100
    # tilt puts its row's max 500 half-log units above its value at the base
    # peak (and exp(-500)**2 underflows), a mean -60 one about 160; precision
    # 1e7 leaves mass on one support point, at the base peak and at the edge.
    PRIORS = [(0.3, 1.2), (-60.0, 0.5), (100.0, 1.0), (0.0, 1e7), (100.0, 1e7)]

    @pytest.mark.parametrize("n_points", [4001, 8001])
    def test_rows_match_one_grid_per_direction(self, n_points, row_calls):
        inp = flat_likelihood_input(NORMAL_SPEC, n_points=n_points)
        assert inp.posterior.support[-1] >= 10.0
        gamma1, gamma2 = np.array(self.PRIORS).T
        expected = "on 1 support point(s) in 2 of 5 direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)) as record:
            h = _posterior_distances(inp, gamma1, gamma2)
        assert len(record) == 1
        assert (len(row_calls) > 1) == (n_points == 8001)
        for h_row, point in zip(h, self.PRIORS):
            moved = reweight_posterior(inp, PriorSpec(Family.NORMAL, ParamPoint(*point)))
            assert abs(h_row - hellinger_grid(moved, inp.posterior)) <= 1e-9

    @pytest.mark.parametrize("n_points", [4001, 8001])
    def test_non_finite_tilt_gives_nan(self, n_points):
        # a row with no finite mass is not counted as degenerate, on strides or
        # on the full grid
        inp = flat_likelihood_input(NORMAL_SPEC, n_points=n_points)
        gamma1 = [0.3, math.nan, math.inf, 100.0]
        gamma2 = [1.2, 1.0, 1.0, -math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", DegeneratePosteriorWarning)
            h = _posterior_distances(inp, gamma1, gamma2)
        assert np.isfinite(h[0]) and np.isnan(h[1:]).all()


class TestStrides:
    """On a kept run of at least 64 * 64 intervals the rows run first on every
    s-th kept point counted back from the last, s the coarsest power of two
    that leaves 64 intervals, and on every 2s-th; a direction whose 1 - BC at
    the two agree takes the value at s, the others are compared again at s/2,
    and the full grid takes the rest, and every direction whose tilt lifts an
    end of the kept run above the tolerance."""

    @pytest.mark.parametrize("n_angles", [64, 200])
    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("family,seed", [(Family.GAMMA, 21), (Family.NORMAL, 22)])
    def test_matches_long_double_sweep(self, family, seed, eps, n_angles, row_calls):
        inp = conjugate_input(family, seed)
        grid = compute_grid(inp.base_prior, eps, n_angles=n_angles)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        ratios = circular_sensitivity(inp, grid).entries.ratio
        assert not on_full_grid(inp, row_calls, g1, g2).any()
        expected = reweighted_distances_longdouble(inp, g1, g2) / eps
        assert np.max(np.abs(ratios / expected - 1.0)) <= 1e-11

    # on gamma seed 24 at eps 0.3 and 0.5 some directions settle at s/2 and some
    # run on the full grid
    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3, 0.5])
    @pytest.mark.parametrize("family,seed", [(Family.GAMMA, 23), (Family.GAMMA, 24), (Family.NORMAL, 24)])
    def test_agrees_with_rows(self, family, seed, eps):
        inp = conjugate_input(family, seed)
        grid = compute_grid(inp.base_prior, eps, n_angles=1600)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        h = _posterior_distances(inp, g1, g2)
        rows = by_rows(inp, g1, g2)
        # the gap between two strides is about 3x the error of the finer one, so
        # an accepted H is within about a sixth of the 2e-11 tolerance; 7.2e-12 at
        # worst on 20 conjugate posteriors of 8001 points
        assert np.all(np.abs(h / rows - 1.0) <= 1e-11)

    def test_strides_halve_once_before_the_full_grid(self, row_calls):
        # here 277 of 1600 directions lift an end of the kept run and go to the full
        # grid; 3 of the others fail the first pair and settle at s/2
        inp = conjugate_input(Family.GAMMA, 24)
        grid = compute_grid(inp.base_prior, 0.3, n_angles=1600)
        _posterior_distances(inp, grid.points.point.gamma1, grid.points.point.gamma2)
        (first, _, _), (second, _, _), (half, _, _), (full, _, _) = row_calls
        assert first.size == second.size and half.size > 0
        assert 0 < 1600 - first.size <= full.size < 1600 - first.size + half.size

    @pytest.mark.parametrize("eps", [0.3, 0.5])
    @pytest.mark.parametrize("prior", [(0.5, 2.0), (1.0, 0.34), (0.05, 30.0), (3.0, 2.0)], ids=str)
    def test_disagreeing_strides_run_on_the_full_grid(self, prior, eps, row_calls):
        # with a flat likelihood the moved posteriors pile up at an edge of the
        # kept run, where strides converge slowly or not at all: the directions
        # they do not settle are the full grid's rows of those directions alone
        spec = PriorSpec(Family.GAMMA, ParamPoint(*prior))
        inp = flat_likelihood_input(spec, Scale.LOG_PARAMETER, n_points=8001)
        grid = compute_grid(spec, eps, n_angles=1600)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        h = _posterior_distances(inp, g1, g2)
        full = on_full_grid(inp, row_calls, g1, g2)
        assert full.any()
        assert np.array_equal(h[full], by_rows(inp, g1[full], g2[full]))
        # a direction whose tilt lifts an end of the kept run goes to the full grid:
        # without that, two strides agreed by chance on (3, 2), up to 2.2e-10 off
        assert np.max(np.abs(h / by_rows(inp, g1, g2) - 1.0)) <= 1e-11

    def test_directions_that_could_be_degenerate_run_on_the_full_grid(self, row_calls):
        # a rate of 3e7 or 1e8 moves all the mass onto the first support point, whose
        # base probability is about 1e-24: BC is below 1e-10 on every stride, so
        # 1 - BC agrees to within the tolerance there, but the tilt lifts that end of
        # the kept run and the direction runs on the full grid, where it is counted
        support = np.geomspace(1e-3, 1e3, 8001)
        posterior = normalize_grid(DensityGrid(support, (support / 1e3) ** 2.4, Scale.NATURAL))
        inp = PosteriorInput(posterior, PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.1)), Scale.NATURAL)
        gamma1, gamma2 = np.array([1.0, 1.01, 1.0, 1.0]), np.array([0.101, 0.1, 1e8, 3e7])
        expected = "on 1 support point(s) in 2 of 4 direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)):
            h = _posterior_distances(inp, gamma1, gamma2)
        assert on_full_grid(inp, row_calls, gamma1, gamma2)[2:].all()
        with pytest.warns(DegeneratePosteriorWarning):
            assert np.array_equal(h[2:], by_rows(inp, gamma1[2:], gamma2[2:]))

    def test_kept_set_with_a_gap_runs_on_the_full_grid(self, row_calls):
        # two modes 30 standard deviations apart: the kept support points form
        # two runs, and every direction goes by rows on the full grid
        support = np.linspace(-25.0, 25.0, 8001)
        values = np.exp(-0.5 * (support + 15.0) ** 2) + np.exp(-0.5 * (support - 15.0) ** 2)
        posterior = normalize_grid(DensityGrid(support, values, Scale.NATURAL))
        base = PriorSpec(Family.NORMAL, ParamPoint(0.0, 0.01))
        inp = PosteriorInput(posterior, base, Scale.NATURAL)
        keep = posterior.values >= TAIL_GUARD * posterior.values.max()
        assert np.count_nonzero(np.diff(keep.astype(int)) == 1) == 2
        grid = compute_grid(base, 0.1, n_angles=64)
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        h = _posterior_distances(inp, g1, g2)
        assert [(a.size, width) for a, _, width in row_calls] == [(64, np.count_nonzero(keep))]
        assert np.max(np.abs(h / reweighted_distances_longdouble(inp, g1, g2) - 1.0)) <= 1e-11


class TestConjugateContract:
    """Seeded contract draws: conjugate posteriors of both families
    (:func:`conjugate_case`, whose samples have at least 3 points, so no
    likelihood is flat; flat likelihoods are checked against full-grid rows in
    TestStrides) tabulated on 43 to 8001 points, at eps from 1e-6 to 0.5,
    swept through :func:`circular_sensitivity` and checked against the closed
    form of the moved conjugate posterior."""

    DRAWS = 60

    @staticmethod
    def draw(i):
        rng = np.random.default_rng([11, i])
        family = (Family.GAMMA, Family.NORMAL)[i % 2]
        n_points = round(math.exp(rng.uniform(math.log(43), math.log(8001))))
        return family, 1000 + i, n_points, 10 ** rng.uniform(-6.0, math.log10(0.5))

    @pytest.mark.parametrize("i", range(DRAWS))
    def test_matches_closed_form(self, i):
        family, seed, n_points, eps = self.draw(i)
        prior, post, _ = conjugate_case(family, seed)
        inp = conjugate_input(family, seed, n_points)
        grid = compute_grid(inp.base_prior, eps, n_angles=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = circular_sensitivity(inp, grid).entries.h_post
        g1, g2 = grid.points.point.gamma1, grid.points.point.gamma2
        # the sweep's own formula in long double: the kernel's error, at most
        # 1.1e-13 over these draws
        assert np.max(np.abs(h / reweighted_distances_longdouble(inp, g1, g2) - 1.0)) <= 1e-11
        truth = [
            hellinger_analytic(family, ParamPoint(*post), ParamPoint(*moved_posterior(family, prior, post, new)))
            for new in zip(g1, g2)
        ]
        # the tabulation's error too, as measured on these draws: at most 4.2e-9
        # from 64 points (draw 29, normal on 431 points at eps 1.5e-6) and 5.2e-7
        # below (draw 44: 45 points resolve a gamma posterior of shape 5 no better)
        assert np.max(np.abs(h / truth - 1.0)) <= (1e-8 if n_points >= 64 else 1e-6)
