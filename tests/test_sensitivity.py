import json
import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import hellinger_difference_form, hellinger_grid, reweight_posterior
from priorscan import (
    REFERENCE_LEVELS,
    DegeneratePosteriorWarning,
    DensityGrid,
    DomainError,
    Family,
    ParamPoint,
    PosteriorInput,
    PriorSpec,
    ReweightingError,
    Scale,
    assemble_result,
    calibrated_ratio,
    circular_sensitivity,
    compute_grid,
    export_plot_data,
    normalize_grid,
    result_to_json_dict,
    summarize,
    tabulate_prior,
)
from priorscan import reweight
from priorscan.contour import GRID_DTYPE, POINT_DTYPE, PolarGrid, _preexplore, scaling_factors
from priorscan.sensitivity import ENTRY_DTYPE, POLAR_DTYPE, ROLLED_DTYPE

EPS0 = 0.00354
GAMMA_BASE = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))
NORMAL_BASE = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))


def points(gamma1, gamma2):
    return np.rec.fromarrays([gamma1, gamma2], dtype=POINT_DTYPE)


def make_grid(phi, point, epsilon=EPS0, failed=()):
    grid = np.zeros(len(phi), GRID_DTYPE).view(np.recarray)
    grid.phi, grid.point = phi, point
    return PolarGrid(GAMMA_BASE, epsilon, grid, _preexplore(GAMMA_BASE, epsilon), failed)


def make_result(ratios, epsilon=EPS0, failed=()):
    n = len(ratios)
    phi = -math.pi + 2.0 * math.pi * np.arange(n) / n
    point = points(1.0 + np.arange(n), np.ones(n))
    return assemble_result(make_grid(phi, point, epsilon, failed), np.array(ratios) * epsilon)


class TestAssembleResult:
    def test_summary_statistics(self):
        res = make_result([0.2, 0.8, 0.5, 0.8])
        assert res.worst_case == pytest.approx(0.8, rel=1e-12)
        assert res.min == pytest.approx(0.2, rel=1e-12)
        assert res.mean == pytest.approx(0.575, rel=1e-12)
        assert res.median == pytest.approx(0.65, rel=1e-12)

    @pytest.mark.parametrize(
        "ratios",
        [
            [0.37],
            [0.2, 0.8, 0.5],
            [0.2, 0.8, 0.5, 0.8],
            [0.8, 0.8, 0.8, 0.1, 0.1],
            [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16],
            [5e-324, 1e-300, 0.0, 2.0, 1.0 - 2.0**-53, 1e-308],
        ],
    )
    def test_summary_statistics_match_the_statistics_module(self, ratios):
        # without statistics: fmean is fsum / len, median the middle of the sorted ratios
        res = make_result(ratios, epsilon=0.5)
        values = res.entries.ratio.tolist()
        assert res.mean == statistics.fmean(values)
        assert res.median == statistics.median(values)

    @pytest.mark.parametrize(
        "values",
        [[3.0], [2.0, 1.0], [1e308, 1.7e308], [-1e308, 1e308, 5e-324], [1.0, 1.0, 2.0, 2.0],
         [0.1, 0.7, 0.2, 0.7, 0.3, 0.1, 0.9]],
    )
    def test_median_is_bitwise_the_statistics_median(self, values):
        # a result's median, sorted in Python, is numpy's; both overflow to inf on [1e308, 1.7e308], where
        # numpy also warns (a result never holds those ratios: its mean's fsum raises first)
        with np.errstate(over="ignore"):
            assert float(np.median(values)) == statistics.median(values)

    def test_ratio_definition(self):
        res = make_result([0.37])
        e = res.entries[0]
        assert e.ratio == e.h_post / EPS0

    def test_worst_angle_is_first_maximum(self):
        res = make_result([0.3, 0.9, 0.9, 0.1])
        assert res.worst_angle == res.entries[1].phi

    def test_calibrated_worst(self):
        res = make_result([0.4, 1.2])
        assert res.calibrated_worst == calibrated_ratio(1.2 * EPS0, EPS0)

    def test_empty_raw_rejected(self):
        with pytest.raises(DomainError):
            assemble_result(make_grid([], points([], [])), [])

    def test_failed_angles_carried(self):
        res = make_result([0.5] * 6, failed=(1.0, 2.0))
        assert res.failed_angles == (1.0, 2.0)
        assert res.n_angles == 8

    def test_super_sensitive_property(self):
        assert make_result([0.5, 1.01]).super_sensitive
        assert not make_result([0.5, 1.0]).super_sensitive


class TestCircularSensitivity:
    def test_flat_likelihood_tracks_prior_one_for_one(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        inp = PosteriorInput(
            tabulate_prior(GAMMA_BASE, Scale.LOG_PARAMETER), GAMMA_BASE, Scale.LOG_PARAMETER
        )
        res = circular_sensitivity(inp, grid)
        assert len(res.entries) == 16
        assert max(abs(e.ratio - 1.0) for e in res.entries) <= 1e-4
        assert res.cardinal == grid.cardinal

    def test_concentrated_posterior_dampens_perturbations(self):
        # data sharpened the posterior fivefold in precision, so prior
        # nudges should move it strictly less than one for one
        post = tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(0.0, 5.0)), Scale.NATURAL)
        inp = PosteriorInput(post, NORMAL_BASE, Scale.NATURAL)
        res = circular_sensitivity(inp, compute_grid(NORMAL_BASE, EPS0, n_angles=16))
        assert 0.0 < res.min <= res.worst_case < 1.0
        assert not res.super_sensitive

    def test_deterministic(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        inp = PosteriorInput(
            tabulate_prior(GAMMA_BASE, Scale.LOG_PARAMETER), GAMMA_BASE, Scale.LOG_PARAMETER
        )
        a, b = circular_sensitivity(inp, grid), circular_sensitivity(inp, grid)
        assert a.entries.tobytes() == b.entries.tobytes()
        assert vars(replace(a, entries=None)) == vars(replace(b, entries=None))  # records compare by identity

    def test_base_mismatch_rejected(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        other = PriorSpec(Family.GAMMA, ParamPoint(2.0, 0.34))
        inp = PosteriorInput(
            tabulate_prior(other, Scale.LOG_PARAMETER), other, Scale.LOG_PARAMETER
        )
        with pytest.raises(DomainError):
            circular_sensitivity(inp, grid)

    def test_reweighting_failure_reports_the_angle(self):
        sharp = PriorSpec(Family.GAMMA, ParamPoint(100.0, 100.0))
        support = np.linspace(20.0, 40.0, 9)
        grid_density = DensityGrid(support, np.full(9, 0.05), Scale.NATURAL)
        inp = PosteriorInput(grid_density, sharp, Scale.NATURAL)
        contour = compute_grid(sharp, EPS0, n_angles=8)
        with pytest.raises(ReweightingError, match=r"angle -3\.141593: base prior underflows"):
            circular_sensitivity(inp, contour)

    def test_direction_without_finite_mass_is_named(self):
        # a shape of 1e308 tilts the posterior by exp(1e308 log tau), which has no finite mass
        base = PriorSpec(Family.GAMMA, ParamPoint(2.0, 1.0))
        inp = PosteriorInput(tabulate_prior(base, Scale.LOG_PARAMETER, 401), base, Scale.LOG_PARAMETER)
        gamma1 = np.full(8, 2.01)
        gamma1[3] = 1e308
        grid = replace(make_grid(np.linspace(-3.0, 3.0, 8), points(gamma1, np.ones(8))), base=base)
        # the error alone names that direction: it is not also counted as degenerate
        with pytest.raises(ReweightingError) as exc, warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePosteriorWarning)
            circular_sensitivity(inp, grid)
        assert str(exc.value) == "angle -0.428571: reweighted posterior has no finite mass"

    @pytest.mark.parametrize("epsilon", [1e-3, 0.00354, 1e-2])
    @pytest.mark.parametrize(
        "base,posterior,scale",
        [
            (GAMMA_BASE, PriorSpec(Family.GAMMA, ParamPoint(4.0, 2.5)), Scale.LOG_PARAMETER),
            (GAMMA_BASE, PriorSpec(Family.GAMMA, ParamPoint(4.0, 2.5)), Scale.NATURAL),
            (NORMAL_BASE, PriorSpec(Family.NORMAL, ParamPoint(0.4, 6.0)), Scale.NATURAL),
        ],
    )
    def test_batched_sweep_matches_one_grid_per_direction(self, base, posterior, scale, epsilon):
        inp = PosteriorInput(tabulate_prior(posterior, scale), base, scale)
        res = circular_sensitivity(inp, compute_grid(base, epsilon, n_angles=24))
        for e in res.entries:
            moved = reweight_posterior(inp, PriorSpec(base.family, e.point))
            assert abs(e.h_post - hellinger_grid(moved, inp.posterior)) <= 1e-9

    @pytest.mark.parametrize("epsilon", [1e-5, 1e-6])
    @pytest.mark.parametrize(
        "base,scale", [(GAMMA_BASE, Scale.LOG_PARAMETER), (NORMAL_BASE, Scale.NATURAL)]
    )
    def test_small_epsilon_flat_likelihood_matches_closed_form(self, base, scale, epsilon):
        # 1 - BC would be cancellation noise here; the ratios must still
        # follow the prior distance of each contour point
        grid = compute_grid(base, epsilon, n_angles=64, allow_partial=True)
        inp = PosteriorInput(tabulate_prior(base, scale), base, scale)
        res = circular_sensitivity(inp, grid)
        assert len(res.entries) >= 60
        for e in res.entries:
            truth = hellinger_difference_form(
                base.family.value, base.point.as_tuple(), e.point.tolist()
            )
            assert abs(e.ratio - truth / epsilon) <= 1e-4

    def test_degenerate_directions_warn(self):
        # prior scale lengths far below the support spacing: the rate-raising
        # directions leave all mass on the first support point
        base = PriorSpec(Family.GAMMA, ParamPoint(1.0, 1.0))
        flat = DensityGrid(np.linspace(0.5, 600.5, 9), np.full(9, 1.0 / 600.0), Scale.NATURAL)
        inp = PosteriorInput(flat, base, Scale.NATURAL)
        with pytest.warns(DegeneratePosteriorWarning, match="of 8 direction") as record:
            res = circular_sensitivity(inp, compute_grid(base, 0.3, n_angles=8))
        assert len(res.entries) == 8
        assert [r.filename for r in record] == [__file__]

    def test_well_resolved_sweep_does_not_warn(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        inp = PosteriorInput(
            tabulate_prior(GAMMA_BASE, Scale.LOG_PARAMETER), GAMMA_BASE, Scale.LOG_PARAMETER
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneratePosteriorWarning)
            circular_sensitivity(inp, grid)

    def test_partial_last_block_matches_one_direction_at_a_time(self):
        post = PriorSpec(Family.GAMMA, ParamPoint(4.0, 2.5))
        inp = PosteriorInput(
            tabulate_prior(post, Scale.LOG_PARAMETER), GAMMA_BASE, Scale.LOG_PARAMETER
        )
        res = circular_sensitivity(inp, compute_grid(GAMMA_BASE, 1e-2, n_angles=61))
        step = reweight._BLOCK_CELLS // len(inp.posterior)
        assert len(res.entries) == 61 and 61 > step and 61 % step
        for e in res.entries:
            one = reweight._posterior_distances(inp, [e.point.gamma1], [e.point.gamma2])[0]
            assert abs(e.h_post - one) <= 1e-13 * one

    def test_small_epsilon_conjugate_posterior_matches_oracle(self):
        # conjugate gamma posterior of log(theta), tabulated out to where its
        # density is below 1e-20 of the peak so that truncation is negligible
        a, b = 4.0, 2.5
        mode = math.log(a / b)
        z = np.linspace(mode - 25.0 / math.sqrt(a), mode + 8.0 / math.sqrt(a), 401)
        log_f = a * z - b * np.exp(z)
        grid = normalize_grid(DensityGrid(z, np.exp(log_f - log_f.max()), Scale.LOG_PARAMETER))
        self.assert_conjugate_ratios_match_oracle(grid, a, b)

    @pytest.mark.parametrize("a,b", [(4.0, 2.5), (1.5, 0.5)])
    def test_small_epsilon_tabulated_conjugate_posterior_matches_oracle(self, a, b):
        # the same check on tabulate_prior's own window: it must reach far enough
        # into both tails that truncation does not bias the 1e-6 ratios
        grid = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(a, b)), Scale.LOG_PARAMETER, 401)
        self.assert_conjugate_ratios_match_oracle(grid, a, b)

    @staticmethod
    def assert_conjugate_ratios_match_oracle(grid, a, b):
        inp = PosteriorInput(grid, GAMMA_BASE, Scale.LOG_PARAMETER)
        epsilon = 1e-6
        res = circular_sensitivity(
            inp, compute_grid(GAMMA_BASE, epsilon, n_angles=64, allow_partial=True)
        )
        assert len(res.entries) >= 60
        g1, g2 = GAMMA_BASE.point.as_tuple()
        for e in res.entries:
            moved = (a + e.point.gamma1 - g1, b + e.point.gamma2 - g2)
            truth = hellinger_difference_form("gamma", (a, b), moved)
            assert abs(e.ratio - truth / epsilon) <= 1e-9


class TestSummarize:
    def test_core_content(self):
        text = summarize(make_result([0.2, 0.48, 0.3]))
        assert "worst case 0.4800" in text
        assert "gamma(1, 0.34)" in text
        assert "48.0%" in text
        assert "3 directions" in text

    def test_super_sensitivity_flag(self):
        assert "super-sensitivity" in summarize(make_result([1.4]))
        assert "super-sensitivity" not in summarize(make_result([0.9]))

    def test_boundary_flag(self):
        assert "boundary regime" in summarize(make_result([0.9995]))
        assert "boundary regime" not in summarize(make_result([0.9]))

    def test_failed_angle_warning(self):
        text = summarize(make_result([0.5, 0.6], failed=(0.25,)))
        assert "1 direction(s) had no contour solution" in text

    def test_saturation_flag(self):
        res = make_result([1.0 / EPS0])  # h_post exactly 1
        assert res.entries[0].h_post == 1.0
        assert "calibration saturated" in summarize(res)


def assert_columns(table, dtype, rows):
    # one record array of plain columns, not a sequence of per-direction objects
    assert type(table) is np.recarray and table.dtype == dtype and len(table) == rows
    assert not dtype.hasobject


class TestColumnarResults:
    def test_contour_sweep_and_plot_tables_are_record_arrays(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        assert_columns(grid.points, GRID_DTYPE, 16)
        inp = PosteriorInput(
            tabulate_prior(GAMMA_BASE, Scale.LOG_PARAMETER), GAMMA_BASE, Scale.LOG_PARAMETER
        )
        res = circular_sensitivity(inp, grid)
        assert_columns(res.entries, ENTRY_DTYPE, 16)
        for column in ("phi", "point"):
            assert res.entries[column].tobytes() == grid.points[column].tobytes()
        assert np.array_equal(res.entries.ratio, res.entries.h_post / EPS0)
        polar, rolled = export_plot_data(res)
        assert_columns(polar, POLAR_DTYPE, 16 * 11)
        assert_columns(rolled, ROLLED_DTYPE, 16)
        assert isinstance(polar.x, np.ndarray) and isinstance(rolled.is_worst, np.ndarray)

    def test_polar_rows_follow_the_scalar_formula(self):
        # each series is a block of one row per angle; x = g1 + rho * cos(phi) * c_x
        res = make_result([0.4, 0.7, 0.6, 0.5, 1.3, 0.2])
        polar, _ = export_plot_data(res)
        g1, g2 = GAMMA_BASE.point.as_tuple()
        names = ["sensitivity", *(f"ref_{level:.1f}" for level in REFERENCE_LEVELS)]
        for k, row in enumerate(polar.tolist()):
            series, phi, rho, x, y = row
            e = res.entries[k % len(res.entries)]
            cx, cy = scaling_factors(phi, res.cardinal)
            assert series == names[k // len(res.entries)] and phi == e.phi
            assert rho == (e.ratio if series == "sensitivity" else float(series[4:]))
            assert x == g1 + rho * math.cos(phi) * cx
            assert y == g2 + rho * math.sin(phi) * cy


class TestExportPlotData:
    def test_reference_levels(self):
        assert REFERENCE_LEVELS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_polar_layout(self):
        res = make_result([0.4, 0.7, 0.6, 0.5])
        polar, rolled = export_plot_data(res)
        assert len(polar) == 4 * (1 + len(REFERENCE_LEVELS))
        series = {row["series"] for row in polar}
        assert "sensitivity" in series
        assert "ref_0.1" in series and "ref_1.0" in series

    def test_polar_geometry_along_east(self):
        cardinal = _preexplore(GAMMA_BASE, EPS0)
        res = assemble_result(make_grid([0.0], points([1.2], [0.34])), [0.5 * EPS0])
        polar, _ = export_plot_data(res)
        sens = [row for row in polar if row["series"] == "sensitivity"][0]
        assert sens["x"] == pytest.approx(1.0 + 0.5 * cardinal.plus_x, rel=1e-12)
        assert sens["y"] == pytest.approx(0.34, abs=1e-15)

    def test_rolled_layout(self):
        res = make_result([0.4, 0.9, 0.9, 0.5])
        _, rolled = export_plot_data(res)
        assert len(rolled) == 4
        assert [row["is_worst"] for row in rolled] == [0, 1, 0, 0]
        assert all(row["ref_half"] == 0.5 and row["ref_one"] == 1.0 for row in rolled)
        assert [row["ratio"] for row in rolled] == [e.ratio for e in res.entries]

    @pytest.mark.parametrize(
        "base,scale,epsilon",
        [
            (GAMMA_BASE, Scale.LOG_PARAMETER, EPS0),
            (NORMAL_BASE, Scale.NATURAL, EPS0),
            (PriorSpec(Family.GAMMA, ParamPoint(0.03, 1.0)), Scale.LOG_PARAMETER, 0.5),
        ],
        ids=["gamma", "normal", "gamma_failed_angles"],
    )
    def test_tables_match_the_whole_table_construction(self, base, scale, epsilon):
        # the tables, filled in place row by row, hold the bytes of the first construction
        grid = compute_grid(base, epsilon, n_angles=64, allow_partial=True)
        res = circular_sensitivity(PosteriorInput(tabulate_prior(base, scale), base, scale), grid)
        assert bool(res.failed_angles) is (epsilon > EPS0)
        for table, expected in zip(export_plot_data(res), whole_table_plot_data(res)):
            assert type(table) is np.recarray and table.dtype == expected.dtype
            assert table.tobytes() == expected.tobytes()


def whole_table_plot_data(result):
    """export_plot_data as first written: each column built whole (np.repeat, np.tile and
    (1 + levels) x n temporaries) and then copied into its table."""
    entries = result.entries
    n, levels = len(entries), len(REFERENCE_LEVELS)
    cxs, cys = scaling_factors(entries.phi, result.cardinal)
    rho = np.vstack([entries.ratio, *(np.full(n, level) for level in REFERENCE_LEVELS)])
    phis = entries.phi.tolist()
    cos, sin = (np.fromiter(map(f, phis), float, n) for f in (math.cos, math.sin))
    polar = np.empty((1 + levels) * n, POLAR_DTYPE).view(np.recarray)
    polar.series = np.repeat(["sensitivity", *(f"ref_{level:.1f}" for level in REFERENCE_LEVELS)], n)
    polar.phi = np.tile(entries.phi, 1 + levels)
    polar.ratio = rho.ravel()
    polar.x = (result.base.point.gamma1 + rho * cos * cxs).ravel()
    polar.y = (result.base.point.gamma2 + rho * sin * cys).ravel()
    rolled = np.zeros(n, ROLLED_DTYPE).view(np.recarray)
    rolled.phi, rolled.ratio, rolled.ref_half, rolled.ref_one = entries.phi, entries.ratio, 0.5, 1.0
    rolled.is_worst[result.worst_index] = 1
    return polar, rolled


class TestJsonExport:
    def test_fixed_layout(self):
        res = make_result([0.4, 0.7], failed=(2.5,))
        d = result_to_json_dict(res)
        assert list(d.keys()) == [
            "epsilon",
            "n_angles",
            "base",
            "worst_case",
            "worst_angle",
            "mean",
            "median",
            "min",
            "super_sensitive",
            "failed_angles",
            "entries",
        ]
        assert d["n_angles"] == 3
        assert d["base"] == {"family": "gamma", "gamma1": 1.0, "gamma2": 0.34}
        assert d["failed_angles"] == [2.5]
        assert len(d["entries"]) == 2
        assert d["entries"][0]["ratio"] == res.entries[0].ratio

    def test_serializable(self):
        res = make_result([0.4, 0.7])
        text = json.dumps(result_to_json_dict(res))
        assert json.loads(text)["worst_case"] == pytest.approx(0.7)
