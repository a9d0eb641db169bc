import math
import re
import warnings

import numpy as np
import pytest

from oracles import hellinger_grid, reweight_posterior
from priorscan import (
    TAIL_GUARD,
    DegeneratePosteriorWarning,
    DensityGrid,
    DomainError,
    Family,
    ParamPoint,
    PosteriorInput,
    PriorSpec,
    Scale,
    hellinger_analytic,
    normalize_grid,
    tabulate_prior,
)
from priorscan.grids import trapezoid_mass
from priorscan.reweight import DEGENERATE_GUARD, _BLOCK_CELLS, _posterior_distances


def uniform_grid(lo, hi, n=9, scale=Scale.NATURAL):
    support = np.linspace(lo, hi, n)
    values = np.full(n, 1.0 / (hi - lo))
    return DensityGrid(support, values, scale)


def flat_likelihood_input(spec, scale=Scale.NATURAL):
    """Posterior equals the prior when the likelihood carries no information."""
    return PosteriorInput(tabulate_prior(spec, scale), spec, scale)


NORMAL_SPEC = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))
GAMMA_SPEC = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))


class TestPosteriorInput:
    def test_scale_mismatch(self):
        g = tabulate_prior(GAMMA_SPEC, Scale.LOG_PARAMETER)
        with pytest.raises(DomainError):
            PosteriorInput(g, GAMMA_SPEC, Scale.NATURAL)

    def test_gamma_natural_support_must_be_positive(self):
        g = uniform_grid(-1.0, 1.0)
        with pytest.raises(DomainError):
            PosteriorInput(g, GAMMA_SPEC, Scale.NATURAL)

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

    @pytest.mark.parametrize(
        "support,base,shapes,rates",
        [
            # equal interior weights
            (np.linspace(0.5, 600.5, 2001), (1.0, 1.0), (0.5, 5.0), (1e-3, 1e3)),
            # trapezoid weights spanning five orders of magnitude
            (np.geomspace(1e-2, 1e3, 2001), (1.0, 0.1), (1.0, 1e5), (1e-2, 1e2)),
        ],
    )
    def test_degenerate_count_matches_one_direction_at_a_time(self, support, base, shapes, rates):
        grid = normalize_grid(DensityGrid(support, np.ones_like(support), Scale.NATURAL))
        inp = PosteriorInput(grid, PriorSpec(Family.GAMMA, ParamPoint(*base)), Scale.NATURAL)
        rng = np.random.default_rng(1)
        n = 100
        assert n > _BLOCK_CELLS // support.size
        gamma1 = np.exp(rng.uniform(*np.log(shapes), n))
        gamma2 = np.exp(rng.uniform(*np.log(rates), n))

        occupied = []
        for g1, g2 in zip(gamma1, gamma2):
            out = reweight_posterior(inp, PriorSpec(Family.GAMMA, ParamPoint(g1, g2)))
            occupied.append(np.count_nonzero(out.values > DEGENERATE_GUARD * out.values.max()))
        occupied = np.array(occupied)
        few = int(np.count_nonzero(occupied < 3))
        assert 0 < few < n

        expected = f"on {occupied.min()} support point(s) in {few} of {n} direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)):
            _posterior_distances(inp, gamma1, gamma2)


class TestShiftBound:
    """The sweep shifts each row by an upper bound on its max; a row whose
    bound is loose or not finite takes its exact max instead."""

    # On the normal (0, 1) base, whose support reaches |u| = 10, a mean-100
    # tilt bounds its row 500 half-log units above its value at the base peak
    # (and exp(-500)**2 underflows), a mean -60 one about 160; precision 1e7
    # leaves mass on one support point, with a tight bound and with a loose one.
    PRIORS = [(0.3, 1.2), (-60.0, 0.5), (100.0, 1.0), (0.0, 1e7), (100.0, 1e7)]

    def test_rows_match_one_grid_per_direction(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        assert inp.posterior.support[-1] >= 10.0
        gamma1, gamma2 = np.array(self.PRIORS).T
        expected = "on 1 support point(s) in 2 of 5 direction(s)"
        with pytest.warns(DegeneratePosteriorWarning, match=re.escape(expected)) as record:
            h = _posterior_distances(inp, gamma1, gamma2)
        assert len(record) == 1
        for h_row, point in zip(h, self.PRIORS):
            moved = reweight_posterior(inp, PriorSpec(Family.NORMAL, ParamPoint(*point)))
            assert abs(h_row - hellinger_grid(moved, inp.posterior)) <= 1e-9

    def test_non_finite_tilt_gives_nan(self):
        inp = flat_likelihood_input(NORMAL_SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(DegeneratePosteriorWarning, match="in 3 of 4 direction"):
                h = _posterior_distances(
                    inp, [0.3, math.nan, math.inf, 100.0], [1.2, 1.0, 1.0, -math.inf]
                )
        assert np.isfinite(h[0]) and np.isnan(h[1:]).all()
