import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorscan import (
    SATURATION_H,
    DomainError,
    SaturatedCalibrationWarning,
    calibrate,
    calibrated_ratio,
    inverse_calibrate,
)

EPS = 2.0**-52


class TestCalibrate:
    def test_zero(self):
        assert calibrate(0.0) == 0.0
        assert inverse_calibrate(0.0) == 0.0

    def test_benchmark_anchor(self):
        # the canonical contour radius 0.00354 calibrates to a mean shift
        # of one hundredth of a standard deviation
        assert abs(calibrate(0.00354) - 0.01) < 2e-5
        assert abs(calibrate(0.00354) - 0.010012663390389304) <= 1e-15

    def test_inverse_frozen(self):
        assert abs(inverse_calibrate(0.01) - 0.003535522857418054) <= 1e-15

    def test_small_h_linearization(self):
        # mu(h) ~ 2*sqrt(2)*h as h -> 0; log1p keeps this exact in the tail
        h = 1e-9
        assert abs(calibrate(h) / (2.0 * math.sqrt(2.0) * h) - 1.0) <= 1e-12
        mu = 1e-8
        assert abs(inverse_calibrate(mu) * 2.0 * math.sqrt(2.0) / mu - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            calibrate(bad)

    @pytest.mark.parametrize("bad", [-1e-9, math.inf, math.nan])
    def test_inverse_domain(self, bad):
        with pytest.raises(DomainError):
            inverse_calibrate(bad)

    def test_saturation_warning(self):
        with pytest.warns(SaturatedCalibrationWarning):
            mu = calibrate(1.0 - 5e-16)
        assert math.isfinite(mu)

    # Neighbouring floats can meet one output: each map rounds several times, and
    # h(mu) flattens towards 1 (d log h / d log mu is x exp(-x) / (1 - exp(-x)) with
    # x = mu^2 / 8, 4e-4 at mu = 9). A scan of 426k pairs over these ranges, 1 to 64
    # ulps and 1e-15 to 1e-10 relative apart, found no decrease; the widest gaps that
    # still tied were 3.1e-16 relative for calibrate and 2.4e-13 (at mu = 9) for
    # inverse_calibrate. So no pair may decrease, and pairs farther apart than a few
    # times those gaps must increase.
    def test_monotone(self):
        _check_monotone(calibrate, 1e-140, 0.999, strict_gap=1e-15)

    def test_inverse_monotone(self):
        _check_monotone(inverse_calibrate, 1e-140, 9.0, strict_gap=1e-12)


def _check_monotone(f, lo, hi, strict_gap):
    """``f(a) <= f(b)`` for pairs ``lo <= a < b <= hi``, and ``f(a) < f(b)`` where
    ``b - a > strict_gap * b``. Each ``b`` of 200 log-spaced and 200 evenly spaced
    points from ``lo`` to ``hi`` is paired with the points 1, 2, 3, 8 and
    64 ulps below it, those 1e-15 to 1e-10 relative below, and the next point down."""
    points = sorted({*np.geomspace(lo, hi, 200).tolist(), *np.linspace(lo, hi, 200).tolist()})
    for below, b in zip([None, *points], points):
        lower = [b - k * math.ulp(b) for k in (1, 2, 3, 8, 64)]
        lower += [b * (1.0 - 10.0 ** (e / 4)) for e in range(-60, -39)]
        for a in [x for x in lower if x >= lo] + ([below] if below is not None else []):
            fa, fb = f(a), f(b)
            assert fa <= fb, (a, b)
            if b - a > strict_gap * b:
                assert fa < fb, (a, b)


def _mu_closed_form(h):
    return math.sqrt(-8.0 * math.log1p(-h * h))


def _h_closed_form(mu):
    return math.sqrt(-math.expm1(-mu * mu / 8.0))


def _sqrt8():
    return Decimal(8).sqrt()


class TestTinyDistances:
    """Below about 1.5e-154 the squares are subnormal, and the maps are their leading
    terms ``sqrt(8) h`` and ``mu / sqrt(8)``; above, the closed forms, bit for bit."""

    def test_closed_forms_kept_down_to_1e_150(self):
        eps = 0.00354
        for k in range(1, 301):
            x = 10.0 ** (-k / 2)
            assert calibrate(x) == _mu_closed_form(x)
            assert inverse_calibrate(x) == _h_closed_form(x)
            assert calibrated_ratio(x, eps)[0] == _mu_closed_form(x) / _mu_closed_form(eps)

    @pytest.mark.parametrize("x", [1e-160, 1e-200])
    def test_leading_terms(self, x):
        # the closed forms gave 2.8284113805211334e-160 (5.6e-6 relative) and 0.0 here
        with localcontext() as ctx:
            ctx.prec = 40
            mu, h = _sqrt8() * Decimal(x), Decimal(x) / _sqrt8()
            ratio = mu / Decimal(calibrate(0.00354))
        assert abs(Decimal(calibrate(x)) / mu - 1) <= Decimal("1e-15")
        assert abs(Decimal(inverse_calibrate(x)) / h - 1) <= Decimal("1e-15")
        assert abs(Decimal(calibrated_ratio(x, 0.00354)[0]) / ratio - 1) <= Decimal("1e-15")

    def test_least_subnormal(self):
        # results below 2.2e-308 are spaced by 5e-324, so no relative bound holds;
        # they are the correctly rounded values: 3 * 5e-324, and 0 for 1.77e-324
        x = 5e-324
        with localcontext() as ctx:
            ctx.prec = 40
            mu, h = float(_sqrt8() * Decimal(x)), float(Decimal(x) / _sqrt8())
        assert calibrate(x) == mu == 1.5e-323
        assert inverse_calibrate(x) == h == 0.0

    def test_signed_zero(self):
        assert math.copysign(1.0, calibrate(-0.0)) == 1.0
        assert math.copysign(1.0, inverse_calibrate(-0.0)) == 1.0


class TestRoundTrip:
    @given(st.floats(0.0, 9.0))
    def test_moderate_shifts(self, mu):
        assert abs(calibrate(inverse_calibrate(mu)) - mu) <= 1.1e-11

    @pytest.mark.filterwarnings("ignore::priorscan.errors.SaturatedCalibrationWarning")
    @given(st.floats(9.0, 17.0))
    def test_large_shifts_conditioning_bound(self, mu):
        # beyond mu ~ 9 the distance sits within a few ulps of 1 and the
        # round trip inherits the condition number d(mu)/d(h), which blows
        # up like exp(mu^2 / 8) / mu; the recovered shift is only as good
        # as float64 can represent
        rt = calibrate(inverse_calibrate(mu))
        bound = max(16.0 * EPS * math.exp(mu * mu / 8.0) / mu, 1.1e-11)
        assert abs(rt - mu) <= bound

    def test_shift_past_representability_saturates(self):
        # exp(-18^2 / 8) < 2^-53, so h rounds to exactly 1.0
        assert inverse_calibrate(18.0) == 1.0

    @given(st.floats(0.0, 0.98))
    def test_distance_round_trip(self, h):
        assert abs(inverse_calibrate(calibrate(h)) - h) <= 1e-12


class TestCalibrateValue:
    """The calibrated shift behind the exact ratio of ``calibrated_ratio``."""

    def test_plain_value(self):
        exact, _ = calibrated_ratio(0.5, 0.00354)
        assert exact == calibrate(0.5) / calibrate(0.00354)

    def test_saturated_input_is_clamped(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # clamping is silent
            exact, _ = calibrated_ratio(1.0, 0.00354)
            assert math.isfinite(exact)
            assert exact == calibrated_ratio(SATURATION_H, 0.00354)[0]

    def test_just_below_saturation(self):
        below, _ = calibrated_ratio(SATURATION_H - 1e-16, 0.00354)
        assert below < calibrated_ratio(SATURATION_H, 0.00354)[0]

    @pytest.mark.parametrize("bad", [-0.1, 1.0 + 1e-9, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            calibrated_ratio(bad, 0.00354)


class TestCalibratedRatio:
    def test_identity_is_exact(self):
        exact, first = calibrated_ratio(0.00354, 0.00354)
        assert exact == 1.0
        assert first == 1.0

    def test_double_distance(self):
        exact, first = calibrated_ratio(0.00708, 0.00354)
        assert first == 2.0
        assert abs(exact - 2.0) <= 1e-4

    @given(h=st.floats(0.0, 0.02), eps=st.floats(1e-4, 0.02))
    def test_small_distance_agreement(self, h, eps):
        # mu(h)/mu(eps) = (h/eps) * (1 + (h^2 - eps^2)/4 + ...)
        exact, first = calibrated_ratio(h, eps)
        assert abs(exact - first) <= 1.05 * first * (h * h + eps * eps) / 4.0 + 1e-12

    def test_saturated_posterior_gives_finite_lower_bound(self):
        exact, first = calibrated_ratio(1.0, 0.00354)
        assert math.isfinite(exact)
        assert exact > 100.0

    @pytest.mark.parametrize("h,eps", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domain(self, h, eps):
        with pytest.raises(DomainError):
            calibrated_ratio(h, eps)
