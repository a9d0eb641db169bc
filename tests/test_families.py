import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    hellinger_analytic,
    hellinger_difference_form,
    hellinger_gamma_quad,
    hellinger_normal_quad,
)
from priorscan import (
    DomainError,
    Family,
    ParamPoint,
    PriorSpec,
    Scale,
    log_prior_density,
    tabulate_prior,
)
from priorscan.families import (
    _LOG_DROP,
    _log_bc,
    _polygamma,
    cubic_form,
    fisher_information,
    hellinger_closed_form,
)
from priorscan.params import validate_point
from priorscan.grids import trapezoid_mass

param = st.floats(0.01, 100.0)


class TestValidation:
    def test_normal_allows_negative_mean(self):
        validate_point(Family.NORMAL, ParamPoint(-5.0, 2.0))

    def test_normal_rejects_nonpositive_precision(self):
        with pytest.raises(DomainError):
            validate_point(Family.NORMAL, ParamPoint(0.0, 0.0))

    def test_gamma_rejects_nonpositive_shape(self):
        with pytest.raises(DomainError):
            validate_point(Family.GAMMA, ParamPoint(-1.0, 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            validate_point(Family.NORMAL, ParamPoint(math.nan, 1.0))

    def test_prior_spec_validates_on_construction(self):
        with pytest.raises(DomainError):
            PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.0))


def prior_density(spec, x, scale=Scale.NATURAL):
    return np.exp(log_prior_density(spec, x, scale))


class TestDensityEvaluation:
    def test_standard_normal_mode(self):
        spec = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))
        assert abs(prior_density(spec, 0.0) - 0.3989423) <= 1e-7

    def test_exponential_at_origin_limit(self):
        # shape 1 gamma is the exponential; density at 0+ equals the rate
        spec = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))
        assert abs(prior_density(spec, 1e-12) - 0.34) <= 1e-9

    def test_gamma_log_scale_change_of_variables(self):
        spec = PriorSpec(Family.GAMMA, ParamPoint(1.0, 1.0))
        # density of log(theta) at z = 0: f(1) * 1 = e^{-1}
        assert abs(prior_density(spec, 0.0, Scale.LOG_PARAMETER) - 0.3678794) <= 1e-7
        assert abs(prior_density(spec, 0.0, Scale.LOG_PARAMETER) - math.exp(-1)) <= 1e-12

    def test_gamma_rejects_nonpositive_x_on_natural_scale(self):
        spec = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        with pytest.raises(DomainError):
            log_prior_density(spec, 0.0)
        with pytest.raises(DomainError):
            log_prior_density(spec, -1.0)

    def test_normal_rejects_log_scale(self):
        spec = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))
        with pytest.raises(DomainError):
            log_prior_density(spec, 0.0, Scale.LOG_PARAMETER)

    def test_vectorized_evaluation(self):
        spec = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        xs = np.array([0.5, 1.0, 2.0])
        out = prior_density(spec, xs)
        assert out.shape == (3,)
        assert np.all(out > 0.0)

    def test_log_density_matches_density(self):
        # against the densities written out term by term
        spec = PriorSpec(Family.NORMAL, ParamPoint(1.0, 3.0))
        x = 0.7
        f = math.sqrt(3.0 / (2.0 * math.pi)) * math.exp(-0.5 * 3.0 * (x - 1.0) ** 2)
        assert abs(math.exp(log_prior_density(spec, x)) - f) <= 1e-15
        spec = PriorSpec(Family.GAMMA, ParamPoint(2.5, 1.5))
        x = 0.8
        f = 1.5**2.5 * x**1.5 * math.exp(-1.5 * x) / math.gamma(2.5)
        assert abs(math.exp(log_prior_density(spec, x)) - f) <= 1e-15


class TestHellingerNormal:
    def test_identity(self):
        p = ParamPoint(0.0, 1.0)
        assert hellinger_analytic(Family.NORMAL, p, p) == 0.0

    def test_mean_shift_two(self):
        # equal precisions collapse to sqrt(1 - exp(-mu^2 / 8))
        h = hellinger_analytic(Family.NORMAL, ParamPoint(0.0, 1.0), ParamPoint(2.0, 1.0))
        assert abs(h - math.sqrt(1.0 - math.exp(-0.5))) <= 1e-15
        assert abs(h - 0.627271345023321) <= 1e-12

    def test_mixed_pair_frozen_oracle(self):
        # frozen from adaptive quadrature of the Bhattacharyya integral
        h = hellinger_analytic(Family.NORMAL, ParamPoint(0.0, 1.0), ParamPoint(1.0, 4.0))
        assert abs(h - 0.517402118607196) <= 1e-12

    def test_against_live_quadrature(self):
        h = hellinger_analytic(Family.NORMAL, ParamPoint(0.3, 0.5), ParamPoint(-1.2, 2.5))
        assert abs(h - hellinger_normal_quad((0.3, 0.5), (-1.2, 2.5))) <= 1e-9

    def test_rejects_bad_precision(self):
        with pytest.raises(DomainError):
            hellinger_analytic(Family.NORMAL, ParamPoint(0.0, 1.0), ParamPoint(0.0, -1.0))

    @given(m0=st.floats(-50, 50), l0=param, m1=st.floats(-50, 50), l1=param)
    def test_symmetry_and_range(self, m0, l0, m1, l1):
        # the open upper bound is unreachable only in exact arithmetic; once
        # the coefficient underflows, sqrt(1 - 0) rounds to 1.0 exactly
        p0, p1 = ParamPoint(m0, l0), ParamPoint(m1, l1)
        h = hellinger_analytic(Family.NORMAL, p0, p1)
        assert h == hellinger_analytic(Family.NORMAL, p1, p0)
        assert 0.0 <= h <= 1.0
        if p0 == p1:
            assert h == 0.0


class TestHellingerGamma:
    def test_identity(self):
        p = ParamPoint(1.0, 0.34)
        assert hellinger_analytic(Family.GAMMA, p, p) == 0.0

    def test_rate_doubling(self):
        # BC = sqrt(0.34 * 0.68) / 0.51 for two exponentials
        h = hellinger_analytic(Family.GAMMA, ParamPoint(1.0, 0.34), ParamPoint(1.0, 0.68))
        bc = math.sqrt(0.34 * 0.68) / 0.51
        assert abs(h - math.sqrt(1.0 - bc)) <= 1e-15
        assert abs(h - 0.239146311738100) <= 1e-12

    def test_shape_rate_pair_frozen_oracle(self):
        h = hellinger_analytic(Family.GAMMA, ParamPoint(2.0, 1.0), ParamPoint(4.0, 2.0))
        assert abs(h - 0.179722977190181) <= 1e-12

    def test_against_live_quadrature(self):
        h = hellinger_analytic(Family.GAMMA, ParamPoint(0.7, 2.0), ParamPoint(3.1, 0.4))
        assert abs(h - hellinger_gamma_quad((0.7, 2.0), (3.1, 0.4))) <= 1e-9

    def test_large_shapes_no_overflow(self):
        # log-gamma evaluation carries shape parameters past 170!
        h = hellinger_analytic(Family.GAMMA, ParamPoint(500.0, 1.0), ParamPoint(510.0, 1.0))
        assert 0.0 < h < 1.0 and math.isfinite(h)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            hellinger_analytic(Family.GAMMA, ParamPoint(0.0, 1.0), ParamPoint(1.0, 1.0))

    @given(a0=param, b0=param, a1=param, b1=param)
    def test_symmetry_and_range(self, a0, b0, a1, b1):
        p0, p1 = ParamPoint(a0, b0), ParamPoint(a1, b1)
        h = hellinger_analytic(Family.GAMMA, p0, p1)
        assert h == hellinger_analytic(Family.GAMMA, p1, p0)
        assert 0.0 <= h <= 1.0
        if p0 == p1:
            assert h == 0.0

    def test_dispatch(self):
        p0, p1 = ParamPoint(2.0, 1.0), ParamPoint(4.0, 2.0)
        assert hellinger_analytic(Family.GAMMA, p0, p1) == hellinger_closed_form(
            Family.GAMMA, *p0.as_tuple(), *p1.as_tuple()
        )
        q0, q1 = ParamPoint(0.0, 1.0), ParamPoint(1.0, 4.0)
        assert hellinger_analytic(Family.NORMAL, q0, q1) == hellinger_closed_form(
            Family.NORMAL, *q0.as_tuple(), *q1.as_tuple()
        )

    @pytest.mark.parametrize(
        "family,good,bad",
        [(Family.NORMAL, (0.0, 1.0), (0.0, 0.0)), (Family.GAMMA, (2.0, 1.0), (2.0, -1.0))],
    )
    def test_validates_both_points(self, family, good, bad):
        with pytest.raises(DomainError):
            hellinger_analytic(family, ParamPoint(*bad), ParamPoint(*good))
        with pytest.raises(DomainError):
            hellinger_analytic(family, ParamPoint(*good), ParamPoint(*bad))


class TestClosedFormDifferenceForm:
    """The array closed form against the independent difference-form oracle."""

    STEPS = np.geomspace(1e-12, 1.0, 25)
    ANGLES = np.linspace(-math.pi, math.pi, 8, endpoint=False) + math.pi / 4.0

    def check(self, family, base, g1, g2):
        h = hellinger_closed_form(family, *base, g1, g2)
        ref = np.array(
            [hellinger_difference_form(family.value, base, p) for p in zip(g1, g2)]
        )
        kept = (ref >= 1e-8) & (ref <= 0.5)
        assert np.all(np.abs(h[kept] - ref[kept]) <= 1e-9 * ref[kept])
        return ref[kept]

    @pytest.mark.parametrize("shape", [0.01, 0.3, 1.0, 7.0, 120.0, 1e4])
    @pytest.mark.parametrize("rate", [0.05, 2.0, 30.0])
    def test_gamma(self, shape, rate):
        # relative steps; the angle pi/4 moves along a line of constant mean,
        # where the shape and rate parts of log BC cancel the most
        t, phi = np.meshgrid(self.STEPS, self.ANGLES)
        g1 = shape * (1.0 + t.ravel() * np.cos(phi.ravel()))
        g2 = rate * (1.0 + t.ravel() * np.sin(phi.ravel()))
        inside = (g1 > 0.0) & (g2 > 0.0)
        ref = self.check(Family.GAMMA, (shape, rate), g1[inside], g2[inside])
        assert ref.min() < 1e-7 and ref.max() > 0.1

    @pytest.mark.parametrize("precision", [0.01, 1.0, 1e4])
    def test_normal(self, precision):
        t, phi = np.meshgrid(self.STEPS, self.ANGLES)
        g1 = 0.5 + t.ravel() * np.cos(phi.ravel()) / math.sqrt(precision)
        g2 = precision * (1.0 + t.ravel() * np.sin(phi.ravel()))
        inside = g2 > 0.0
        ref = self.check(Family.NORMAL, (0.5, precision), g1[inside], g2[inside])
        assert ref.min() < 1e-7 and ref.max() > 0.1

    @pytest.mark.parametrize("family", list(Family))
    def test_non_finite_input_gives_zero(self, family):
        with np.errstate(invalid="ignore"):
            h = hellinger_closed_form(
                family, 1.0, 1.0, np.array([math.nan, 2.0, 1.0]), np.array([1.0, 1.0, math.nan])
            )
            assert hellinger_closed_form(family, 1.0, 1.0, math.nan, math.nan) == 0.0
        assert h[0] == 0.0 and h[2] == 0.0
        assert 0.3 < h[1] < 0.4
        if family is Family.GAMMA:
            with np.errstate(invalid="ignore"):
                assert hellinger_closed_form(family, 1.0, 1.0, math.inf, 1.0) == 0.0


def test_trigamma_matches_scipy():
    from scipy.special import polygamma

    a = np.r_[np.logspace(-3.0, 4.0, 701), 7.9, 8.0, 8.1]
    expected = polygamma(1, a)
    assert np.max(np.abs(_polygamma(1, a) / expected - 1.0)) <= 1e-12
    # scalars and 2-d arrays are evaluated elementwise
    assert abs(float(_polygamma(1, 0.5)) / polygamma(1, 0.5) - 1.0) <= 1e-12
    assert np.array_equal(_polygamma(1, a.reshape(-1, 2)), _polygamma(1, a).reshape(-1, 2))


def test_second_polygamma_matches_scipy():
    from scipy.special import polygamma

    a = np.r_[np.logspace(-3.0, 6.0, 901), 7.9, 8.0, 8.1]
    assert np.max(np.abs(_polygamma(2, a) / polygamma(2, a) - 1.0)) <= 1e-12


def test_fisher_information_is_unchanged():
    # psi_1 shares its code with psi_2; the gamma entry keeps its exact bits
    pinned = {
        1e-3: "0x1.e848348fa1c6dp+19", 0.05: "0x1.918848921e2b7p+8", 0.5: "0x1.3bd3cc9be45dfp+2",
        1.0: "0x1.a51a6625307d2p+0", 1.7: "0x1.96229d0f55f66p-1", 7.9: "0x1.145697315bf5dp-3",
        8.0: "0x1.10aa239ffbc55p-3", 200.0: "0x1.4880250c9adbbp-8", 1e6: "0x1.0c6f82d72bcaap-20",
    }
    for a, bits in pinned.items():
        assert fisher_information(Family.GAMMA, a, 3.0) == (float.fromhex(bits), -1.0, a)


@pytest.mark.parametrize(
    "family,base", [(Family.GAMMA, (1.0, 0.34)), (Family.GAMMA, (0.05, 30.0)), (Family.NORMAL, (2.0, 0.001))]
)
def test_cubic_form_is_the_third_order_term(family, base):
    # log BC = -r^2 Q / 8 - r^3 T / 16 + O(r^4) along a step r (x, v g2): fit the
    # polynomial log BC / r^2 in r between 1e-3 and 1e-2 of the unit Fisher radius
    g1, g2 = base
    i11, i12, i22 = fisher_information(family, g1, g2)
    rho = np.geomspace(1e-3, 1e-2, 60)
    for phi in np.random.default_rng(5).uniform(-math.pi, math.pi, 32):
        x, v = math.cos(phi), math.sin(phi)
        unit = math.sqrt(8.0 / (i11 * x * x + 2.0 * i12 * x * v + i22 * v * v))
        r = rho * unit
        log_bc = _log_bc(family, g1, g2, g1 + r * x, g2 + r * v * g2)
        fit = np.linalg.lstsq(np.vander(rho, 6, increasing=True), log_bc / rho**2, rcond=None)[0]
        cubic = cubic_form(family, g1, g2, x, v)
        assert fit[1] / unit**3 == pytest.approx(-cubic / 16.0, rel=1e-6)


class TestTabulatePrior:
    @pytest.mark.parametrize(
        "spec,scale",
        [
            (PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0)), Scale.NATURAL),
            (PriorSpec(Family.NORMAL, ParamPoint(3.0, 0.001)), Scale.NATURAL),
            (PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.NATURAL),
            (PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.LOG_PARAMETER),
            (PriorSpec(Family.GAMMA, ParamPoint(0.05, 2.0)), Scale.LOG_PARAMETER),
            (PriorSpec(Family.GAMMA, ParamPoint(0.01, 2.0)), Scale.LOG_PARAMETER),
            # natural-scale edges below the least normal float are held there
            (PriorSpec(Family.GAMMA, ParamPoint(1.0, 1e300)), Scale.NATURAL),
            (PriorSpec(Family.GAMMA, ParamPoint(1.0, 1e306)), Scale.NATURAL),
            (PriorSpec(Family.GAMMA, ParamPoint(2.0, 1e305)), Scale.NATURAL),
        ],
    )
    def test_normalized_output(self, spec, scale):
        g = tabulate_prior(spec, scale)
        assert len(g) == 4001
        assert g.scale is scale
        assert abs(trapezoid_mass(g) - 1.0) <= 1e-10

    def test_rejects_tiny_grids(self):
        with pytest.raises(DomainError):
            tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0)), n_points=4)

    def test_normal_rejects_log_scale(self):
        with pytest.raises(DomainError):
            tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0)), Scale.LOG_PARAMETER)

    @pytest.mark.parametrize("shape", [0.01, 0.05, 0.5, 0.9, 0.999999])
    def test_natural_scale_rejects_shape_below_one(self, shape):
        # singular at 0: the first trapezoid interval would take far too much mass
        spec = PriorSpec(Family.GAMMA, ParamPoint(shape, 2.0))
        with pytest.raises(DomainError, match="LOG_PARAMETER"):
            tabulate_prior(spec, Scale.NATURAL)
        assert abs(trapezoid_mass(tabulate_prior(spec, Scale.LOG_PARAMETER)) - 1.0) <= 1e-10

    def test_tiny_shape_support_is_finite(self):
        # the window of log(theta) reaches about 5000 below the mode for shape 0.01
        g = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(0.01, 1.0)), Scale.LOG_PARAMETER)
        assert np.all(np.isfinite(g.support))
        assert abs(trapezoid_mass(g) - 1.0) <= 1e-10

    @pytest.mark.parametrize("a", [1e-3, 0.05, 1.0, 4.0, 200.0, 1e6, 1e12])
    @pytest.mark.parametrize("b", [1e-3, 0.34, 50.0])
    def test_gamma_window_edges_match_bisection(self, a, b):
        # brute force: bisect the centred log-density drop a (e^t - t - 1) on each side
        def edge(outer):
            inner = 0.0
            for _ in range(200):
                mid = 0.5 * (inner + outer)
                if a * (math.expm1(mid) - mid) < _LOG_DROP:
                    inner = mid
                else:
                    outer = mid
            return math.log(a) - math.log(b) + 0.5 * (inner + outer)

        g = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(a, b)), Scale.LOG_PARAMETER)
        assert abs(g.support[0] - edge(-1.0 - _LOG_DROP / a)) <= 1e-9
        assert abs(g.support[-1] - edge(700.0)) <= 1e-9
        if a >= 1.0:  # the natural scale takes shapes of at least 1
            nat = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(a, b)), Scale.NATURAL)
            assert nat.support[-1] == pytest.approx(math.exp(g.support[-1]), rel=1e-15)

    @pytest.mark.parametrize("mean,precision", [(0.0, 1.0), (3.0, 0.001), (-2.0, 1e6)])
    def test_normal_window_is_ten_standard_deviations(self, mean, precision):
        g = tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(mean, precision)))
        sd = 1.0 / math.sqrt(precision)
        assert g.support[0] == pytest.approx(mean - 10.0 * sd, rel=1e-15, abs=1e-15 * sd)
        assert g.support[-1] == pytest.approx(mean + 10.0 * sd, rel=1e-15, abs=1e-15 * sd)
        assert math.sqrt(2.0 * _LOG_DROP) == 10.0
