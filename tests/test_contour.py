import functools
import math
import sys
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest

from oracles import hellinger_analytic, hellinger_difference_form
from priorscan import (
    RESIDUAL_RTOL,
    CardinalModuli,
    ContourUnreachableError,
    DomainError,
    Family,
    ParamPoint,
    PartialGridError,
    PriorSpec,
    calibrate,
    compute_grid,
)
import priorscan.contour as contour_mod
from priorscan.contour import _preexplore, _solve_radii, scaling_factors

EPS0 = 0.00354
GAMMA_BASE = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))
NORMAL_BASE = PriorSpec(Family.NORMAL, ParamPoint(0.0, 0.001))
UNIT_NORMAL = PriorSpec(Family.NORMAL, ParamPoint(0.0, 1.0))


def bisect_modulus(base, epsilon, ux, uy, lo=1e-12, hi=None):
    """Independent 1-d bisection for the contour radius along (ux, uy)."""
    caps = []
    if uy < 0.0:
        caps.append(base.point.gamma2 / -uy)
    if base.family is Family.GAMMA and ux < 0.0:
        caps.append(base.point.gamma1 / -ux)
    cap = min(caps) * (1.0 - 1e-12) if caps else math.inf
    if hi is None:
        hi = min(1.0, cap)
        while (
            hellinger_analytic(
                base.family,
                base.point,
                ParamPoint(base.point.gamma1 + hi * ux, base.point.gamma2 + hi * uy),
            )
            < epsilon
            and hi < cap
        ):
            hi = min(hi * 2.0, cap)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = ParamPoint(base.point.gamma1 + mid * ux, base.point.gamma2 + mid * uy)
        if hellinger_analytic(base.family, base.point, p) < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPreexplore:
    def test_gamma_cardinals_match_bisection(self):
        m = _preexplore(GAMMA_BASE, EPS0)
        assert abs(m.plus_x - bisect_modulus(GAMMA_BASE, EPS0, 1.0, 0.0)) <= 1e-10
        assert abs(m.plus_y - bisect_modulus(GAMMA_BASE, EPS0, 0.0, 1.0)) <= 1e-10
        assert abs(m.minus_x - bisect_modulus(GAMMA_BASE, EPS0, -1.0, 0.0)) <= 1e-10
        assert abs(m.minus_y - bisect_modulus(GAMMA_BASE, EPS0, 0.0, -1.0)) <= 1e-10

    def test_normal_mean_direction_is_symmetric(self):
        m = _preexplore(NORMAL_BASE, EPS0)
        assert abs(m.plus_x - m.minus_x) <= 1e-12 * m.plus_x

    def test_unit_normal_mean_modulus_is_the_calibrated_shift(self):
        m = _preexplore(UNIT_NORMAL, EPS0)
        assert abs(m.plus_x - calibrate(EPS0)) <= 1e-12

    def test_diffuse_normal_contour_is_extremely_elongated(self):
        # precision 0.001 tolerates mean shifts ~ eps*sqrt(8/lambda) while
        # the precision direction scales like 4*eps*lambda
        m = _preexplore(NORMAL_BASE, EPS0)
        assert m.plus_x / m.plus_y > 1e3

    def test_positive_moduli(self):
        m = _preexplore(GAMMA_BASE, EPS0)
        assert min(m.plus_x, m.plus_y, m.minus_x, m.minus_y) > 0.0

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(DomainError):
                compute_grid(GAMMA_BASE, eps)


class TestScalingFactors:
    M = CardinalModuli(plus_x=1.0, plus_y=2.0, minus_x=3.0, minus_y=4.0)

    @pytest.mark.parametrize(
        "phi,expected",
        [
            (0.0, (1.0, 2.0)),
            (math.pi / 2.0, (1.0, 2.0)),
            (math.pi, (3.0, 2.0)),
            (-math.pi, (3.0, 4.0)),
            (-math.pi / 2.0, (1.0, 4.0)),
            (-math.pi / 4.0, (1.0, 4.0)),
            (3.0 * math.pi / 4.0, (3.0, 2.0)),
            (math.pi / 4.0, (1.0, 2.0)),
        ],
    )
    def test_quadrant_table(self, phi, expected):
        assert scaling_factors(phi, self.M) == expected

    @pytest.mark.parametrize("phi", [3.2, -3.2, math.nan])
    def test_rejects_out_of_range_angle(self, phi):
        with pytest.raises(DomainError):
            scaling_factors(phi, self.M)


def solve_direction(base, epsilon, phi, cx, cy):
    """One direction through the batched solve behind ``compute_grid``, which
    keeps a point only if its defect is within ``RESIDUAL_RTOL``."""
    gamma1, gamma2, residual = _solve_radii(
        base, epsilon, np.array([phi]), np.array([cx]), np.array([cy])
    )
    assert residual[0] <= epsilon * RESIDUAL_RTOL
    return ParamPoint(float(gamma1[0]), float(gamma2[0]))


class TestSolveRadius:
    def test_unit_normal_along_mean_axis(self):
        p = solve_direction(UNIT_NORMAL, EPS0, 0.0, 1.0, 1.0)
        assert abs(p.gamma1 - calibrate(EPS0)) <= 1e-12
        assert p.gamma2 == 1.0

    def test_point_is_independent_of_the_scaling(self):
        # the scaling stretches the search coordinate, not the contour
        p1 = solve_direction(GAMMA_BASE, EPS0, 0.0, 1.0, 1.0)
        p2 = solve_direction(GAMMA_BASE, EPS0, 0.0, 7.5, 0.2)
        assert abs(p1.gamma1 - p2.gamma1) <= 1e-10
        assert abs(p1.gamma2 - p2.gamma2) <= 1e-10

    def test_precision_directions_are_asymmetric(self):
        up = solve_direction(UNIT_NORMAL, 0.01, math.pi / 2.0, 1.0, 1.0)
        down = solve_direction(UNIT_NORMAL, 0.01, -math.pi / 2.0, 1.0, 1.0)
        assert up.gamma2 > 1.0 > down.gamma2
        assert abs((up.gamma2 - 1.0) + (down.gamma2 - 1.0)) > 1e-7

    def test_residual_contract(self):
        for phi in (-2.5, -1.0, 0.3, 1.7, 3.0):
            p = solve_direction(GAMMA_BASE, EPS0, phi, 1.0, 1.0)
            h = hellinger_analytic(Family.GAMMA, GAMMA_BASE.point, p)
            assert abs(h - EPS0) <= EPS0 * RESIDUAL_RTOL

    def test_gamma_point_stays_in_domain(self):
        p = solve_direction(GAMMA_BASE, 0.4, math.pi, 1.0, 1.0)
        assert p.gamma1 > 0.0 and p.gamma2 > 0.0

    def test_unreachable_direction(self):
        # a distance this small needs a log-radius below the search floor: the
        # solve leaves the direction unbracketed, and the cardinal step, which
        # solves this direction first, reports it
        _, _, residual = _solve_radii(UNIT_NORMAL, 1e-12, np.zeros(1), np.ones(1), np.ones(1))
        assert np.isnan(residual[0])
        with pytest.raises(ContourUnreachableError) as exc:
            compute_grid(UNIT_NORMAL, 1e-12, n_angles=8)
        assert exc.value.phi == 0.0


class TestComputeGrid:
    def test_angle_layout(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        phis = [gp.phi for gp in grid.points]
        assert len(phis) == 16
        assert grid.n_angles == 16
        assert phis[0] == -math.pi
        steps = np.diff(phis)
        assert np.allclose(steps, 2.0 * math.pi / 16.0, rtol=0, atol=1e-12)
        assert phis[-1] < math.pi

    def test_residuals_within_contract(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=32)
        for gp in grid.points:
            assert gp.residual <= EPS0 * RESIDUAL_RTOL

    def test_deterministic(self):
        a = compute_grid(GAMMA_BASE, EPS0, n_angles=24)
        b = compute_grid(GAMMA_BASE, EPS0, n_angles=24)
        assert a.points.tobytes() == b.points.tobytes()
        assert vars(replace(a, points=None)) == vars(replace(b, points=None))  # records compare by identity

    def test_cardinals_are_consistent_with_grid(self):
        # 400 angles place the cardinal directions exactly on the grid
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        by_phi = {gp.phi: gp.point for gp in grid.points}
        east = by_phi[0.0]
        assert abs(east.gamma1 - GAMMA_BASE.point.gamma1 - grid.cardinal.plus_x) <= 1e-10
        assert abs(east.gamma2 - GAMMA_BASE.point.gamma2) <= 1e-15

    def test_normal_grid_mirror_symmetry(self):
        # a normal base is invariant under reflecting the mean, so the
        # contour must be symmetric in the gamma1 offset
        grid = compute_grid(UNIT_NORMAL, EPS0, n_angles=16)
        by_phi = {round(gp.phi, 12): gp.point for gp in grid.points}
        for gp in grid.points:
            mirrored = math.pi - gp.phi
            if mirrored >= math.pi:
                mirrored -= 2.0 * math.pi
            twin = by_phi[round(mirrored, 12)]
            dx = gp.point.gamma1 - UNIT_NORMAL.point.gamma1
            dx_twin = twin.gamma1 - UNIT_NORMAL.point.gamma1
            assert abs(dx + dx_twin) <= 1e-9 * max(abs(dx), 1e-6)
            assert abs(gp.point.gamma2 - twin.gamma2) <= 1e-9 * max(abs(gp.point.gamma2), 1e-6)

    @pytest.mark.parametrize("base", [GAMMA_BASE, NORMAL_BASE])
    def test_scaled_radius_stays_conditioned(self, base):
        # the whole point of the axis scalings: the 1-d solves all happen
        # within a few log-units of radius 1
        grid = compute_grid(base, EPS0, n_angles=64)
        for gp in grid.points:
            cx, cy = scaling_factors(gp.phi, grid.cardinal)
            dx = gp.point.gamma1 - base.point.gamma1
            dy = gp.point.gamma2 - base.point.gamma2
            r = math.hypot(dx / cx, dy / cy)
            assert abs(math.log(r)) <= 3.0

    @pytest.mark.parametrize(
        "base,epsilon",
        [
            (GAMMA_BASE, 1e-5),
            (GAMMA_BASE, 1e-6),
            (GAMMA_BASE, 1e-7),
            (GAMMA_BASE, 1e-8),
            (NORMAL_BASE, 1e-5),
            (NORMAL_BASE, 1e-6),
            (NORMAL_BASE, 1e-7),
            (NORMAL_BASE, 1e-8),
        ],
    )
    def test_small_epsilon_solves_every_angle(self, base, epsilon):
        # checked against the independent difference form, not against the
        # closed form the solver itself evaluates
        grid = compute_grid(base, epsilon, n_angles=400)
        assert len(grid.points) == 400
        for gp in grid.points:
            h = hellinger_difference_form(
                base.family.value, base.point.as_tuple(), gp.point.tolist()
            )
            assert abs(h - epsilon) <= RESIDUAL_RTOL * epsilon

    @pytest.mark.parametrize("epsilon", [1e-6, EPS0, 0.5])
    @pytest.mark.parametrize(
        "family,base",
        [
            ("gamma", (1.0, 1e-300)),
            ("gamma", (1.0, 1e-160)),
            ("gamma", (1.0, 1e160)),
            ("gamma", (0.05, 1e300)),
            ("normal", (1.0, 1e-300)),
            ("normal", (0.5, 1e-300)),
            ("normal", (-3.0, 1e-160)),
        ],
    )
    def test_extreme_rate_or_precision_solves_every_angle(self, family, base, epsilon):
        # both families are scale-invariant in gamma2, so these contours exist; the
        # oracle sees each point mapped to a base with gamma2 = 1 (normal: theta
        # scaled by sqrt(lam0), gamma: by b0), where no product under- or overflows
        g1, g2 = base
        grid = compute_grid(PriorSpec(Family(family), ParamPoint(g1, g2)), epsilon, n_angles=64)
        assert len(grid.points) == 64

        def unit(p):
            if family == "normal":
                return p[0] * math.sqrt(g2), p[1] / g2
            return p[0], p[1] / g2

        for gp in grid.points:
            h = hellinger_difference_form(family, unit(base), unit(gp.point.tolist()))
            assert abs(h - epsilon) <= RESIDUAL_RTOL * epsilon

    @pytest.mark.parametrize(
        "base,epsilon,pre_calls,solve_calls",
        [(b, eps, *((2, 2) if eps < EPS0 else (3, 3)))
         for b in (GAMMA_BASE, NORMAL_BASE) for eps in (1e-6, 1e-3, EPS0, 1e-2)]
        + [(PriorSpec(Family.GAMMA, ParamPoint(200.0, 0.1)), 1e-6, 6, 10)]
        + [(PriorSpec(Family.GAMMA, ParamPoint(0.05, 30.0)), 1e-2, 3, 3)]
        + [(GAMMA_BASE, 0.5, 7, 10), (PriorSpec(Family.GAMMA, ParamPoint(0.05, 30.0)), 0.5, 15, 19)],
    )
    def test_closed_form_calls(self, monkeypatch, base, epsilon, pre_calls, solve_calls):
        # brackets seeded to third order start within O(epsilon^2) of the root, a
        # direction stops once its bracket ends are neighbouring floats, and the
        # Anderson-Bjorck step does not overshoot where f is nearly linear
        import priorscan.contour as contour_mod

        calls = []
        closed_form = contour_mod.hellinger_closed_form

        def counted(*args):
            calls.append(None)
            return closed_form(*args)

        monkeypatch.setattr(contour_mod, "hellinger_closed_form", counted)
        cardinal = _preexplore(base, epsilon)
        assert len(calls) <= pre_calls
        calls.clear()
        phis = -math.pi + 2.0 * math.pi * np.arange(400) / 400
        _, _, residual = contour_mod._solve_radii(base, epsilon, phis, *scaling_factors(phis, cardinal))
        assert len(calls) <= solve_calls
        assert np.all(residual <= RESIDUAL_RTOL * epsilon)

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize(
        "base,bound",
        [(GAMMA_BASE, 2.0), (PriorSpec(Family.GAMMA, ParamPoint(3.0, 2.0)), 2.0), (NORMAL_BASE, 2.0),
         (UNIT_NORMAL, 2.0), (PriorSpec(Family.GAMMA, ParamPoint(0.05, 30.0)), 12.0)],
    )
    def test_seed_is_third_order(self, base, epsilon, bound):
        # the seed's log radius misses the root by O(epsilon^2), where the Fisher
        # radius alone misses it by O(epsilon)
        import priorscan.contour as contour_mod

        phis = -math.pi + 2.0 * math.pi * np.arange(400) / 400
        ux, uy = np.cos(phis), np.sin(phis) * base.point.gamma2
        r, _ = contour_mod._radii(base, epsilon, ux, uy)
        z_unit, shift = contour_mod._seed(base, epsilon, ux, uy)
        assert np.max(np.abs(z_unit + math.log(epsilon) - shift - np.log(r))) <= bound * epsilon**2

    def test_rejects_small_grids_and_bad_epsilon(self):
        with pytest.raises(DomainError):
            compute_grid(GAMMA_BASE, EPS0, n_angles=7)
        with pytest.raises(DomainError):
            compute_grid(GAMMA_BASE, 0.7)

    def test_rejects_grids_over_the_limit_before_tracing(self, monkeypatch):
        monkeypatch.setattr(contour_mod, "_preexplore", None)  # any trace fails with TypeError
        for n_angles in (2**16 + 1, 10**15):
            with pytest.raises(DomainError, match="n_angles"):
                compute_grid(GAMMA_BASE, EPS0, n_angles=n_angles)
        monkeypatch.undo()
        assert len(compute_grid(GAMMA_BASE, EPS0, n_angles=2**16).points) == 2**16

    def test_unreachable_epsilon_propagates(self):
        with pytest.raises(ContourUnreachableError):
            compute_grid(UNIT_NORMAL, 1e-12, n_angles=8)

    def test_partial_grid_raises_by_default(self, monkeypatch):
        import priorscan.contour as contour_mod

        original = contour_mod._solve_radii

        def flaky(base, epsilon, phi, cx, cy):
            gamma1, gamma2, residual = original(base, epsilon, phi, cx, cy)
            return gamma1, gamma2, np.where(phi > 1.5, np.nan, residual)

        monkeypatch.setattr(contour_mod, "_solve_radii", flaky)
        with pytest.raises(PartialGridError) as exc:
            contour_mod.compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        assert all(phi > 1.5 for phi in exc.value.failed_angles)
        assert len(exc.value.failed_angles) >= 1

    def test_partial_grid_allowed(self, monkeypatch):
        import priorscan.contour as contour_mod

        original = contour_mod._solve_radii

        def flaky(base, epsilon, phi, cx, cy):
            gamma1, gamma2, residual = original(base, epsilon, phi, cx, cy)
            return gamma1, gamma2, np.where(phi > 1.5, np.nan, residual)

        monkeypatch.setattr(contour_mod, "_solve_radii", flaky)
        grid = contour_mod.compute_grid(GAMMA_BASE, EPS0, n_angles=16, allow_partial=True)
        assert grid.n_angles == 16
        assert len(grid.failed_angles) >= 1
        assert len(grid.points) + len(grid.failed_angles) == 16
        solved_phis = {gp.phi for gp in grid.points}
        assert solved_phis.isdisjoint(grid.failed_angles)


def grid_bytes(grid):
    """A grid's points, cardinal moduli and failed angles as bytes, so equality is bitwise."""
    return (
        grid.points.tobytes(),
        np.array(astuple(grid.cardinal)).tobytes(),
        np.array(grid.failed_angles).tobytes(),
    )


def cold_grid(base, epsilon, n_angles, allow_partial=True):
    contour_mod._trace.cache_clear()
    return compute_grid(base, epsilon, n_angles=n_angles, allow_partial=allow_partial)


class TestTraceCache:
    @pytest.mark.parametrize("n_angles", [64, 400])
    @pytest.mark.parametrize("epsilon", [1e-4, 1e-2, 0.3])
    @pytest.mark.parametrize("base", [GAMMA_BASE, NORMAL_BASE])
    def test_hit_equals_a_cold_trace(self, base, epsilon, n_angles):
        first = compute_grid(base, epsilon, n_angles=n_angles, allow_partial=True)
        hit = compute_grid(base, epsilon, n_angles=n_angles, allow_partial=True)
        assert hit.points is first.points
        assert grid_bytes(hit) == grid_bytes(cold_grid(base, epsilon, n_angles))

    def test_numpy_float_epsilon_shares_the_trace(self):
        first = compute_grid(GAMMA_BASE, 1e-3, n_angles=64)
        eps = np.float64(1e-3)
        hit = compute_grid(GAMMA_BASE, eps, n_angles=64)
        assert hit.points is first.points
        # the grid carries the caller's own epsilon
        assert hit.epsilon is eps
        assert grid_bytes(hit) == grid_bytes(cold_grid(GAMMA_BASE, eps, 64))

    @pytest.mark.parametrize(
        "other",
        [
            (PriorSpec(Family.NORMAL, GAMMA_BASE.point), EPS0, 16),
            (PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.35)), EPS0, 16),
            (GAMMA_BASE, 1e-3, 16),
            (GAMMA_BASE, EPS0, 24),
        ],
        ids=["family", "base", "epsilon", "n_angles"],
    )
    def test_keys_that_differ_do_not_collide(self, other):
        reference = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        warm = compute_grid(*other)
        assert warm.points.tobytes() != reference.points.tobytes()
        assert grid_bytes(warm) == grid_bytes(cold_grid(*other))

    def test_partial_hit_still_raises(self, monkeypatch):
        original = contour_mod._solve_radii

        def flaky(base, epsilon, phi, cx, cy):
            gamma1, gamma2, residual = original(base, epsilon, phi, cx, cy)
            return gamma1, gamma2, np.where(phi > 1.5, np.nan, residual)

        monkeypatch.setattr(contour_mod, "_solve_radii", flaky)
        partial = compute_grid(GAMMA_BASE, EPS0, n_angles=16, allow_partial=True)
        monkeypatch.undo()
        # the cached partial trace answers both calls, not a new trace
        with pytest.raises(PartialGridError) as exc:
            compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        assert exc.value.failed_angles == partial.failed_angles
        again = compute_grid(GAMMA_BASE, EPS0, n_angles=16, allow_partial=True)
        assert again.points is partial.points
        assert again.failed_angles == partial.failed_angles

    def test_points_are_read_only(self):
        grid = compute_grid(GAMMA_BASE, EPS0, n_angles=16)
        with pytest.raises(ValueError):
            grid.points.residual[0] = 0.0
        with pytest.raises(ValueError):
            grid.points[0] = grid.points[1]
        with pytest.raises(ValueError):
            grid.points.view(np.ndarray)["point"]["gamma1"][0] = 0.0

    def test_failures_are_not_cached(self, monkeypatch):
        calls = []
        original = contour_mod._preexplore

        def counted(base, epsilon):
            calls.append(epsilon)
            return original(base, epsilon)

        monkeypatch.setattr(contour_mod, "_preexplore", counted)
        for _ in range(2):
            with pytest.raises(ContourUnreachableError):
                compute_grid(UNIT_NORMAL, 1e-12, n_angles=8)
        assert len(calls) == 2
        assert contour_mod._trace.cache_info().currsize == 0

    def test_least_recently_used_goes_first(self, monkeypatch):
        memo = functools.lru_cache(maxsize=3)(contour_mod._trace.__wrapped__)
        monkeypatch.setattr(contour_mod, "_trace", memo)
        traced = []
        original = contour_mod._preexplore

        def spy(base, epsilon):
            traced.append(epsilon)
            return original(base, epsilon)

        monkeypatch.setattr(contour_mod, "_preexplore", spy)
        for eps in (1e-3, 2e-3, 3e-3, 1e-3, 4e-3):
            compute_grid(GAMMA_BASE, eps, n_angles=16)
        # the hit on 1e-3 made 2e-3 the least recently used: 4e-3 evicted it
        assert traced == [1e-3, 2e-3, 3e-3, 4e-3]
        for eps in (3e-3, 1e-3, 4e-3, 2e-3):
            compute_grid(GAMMA_BASE, eps, n_angles=16)
        assert traced == [1e-3, 2e-3, 3e-3, 4e-3, 2e-3]

    def test_grid_over_the_trace_limit_is_not_kept(self):
        limit = contour_mod._TRACE_ANGLES
        # the kept rows fit in 2 MiB
        assert contour_mod._TRACES * limit * contour_mod.GRID_DTYPE.itemsize <= 2 << 20
        kept = compute_grid(GAMMA_BASE, EPS0, n_angles=limit)
        big = compute_grid(GAMMA_BASE, EPS0, n_angles=limit + 1)
        assert len(big.points) == limit + 1
        assert contour_mod._trace.cache_info().currsize == 1
        assert compute_grid(GAMMA_BASE, EPS0, n_angles=limit).points is kept.points
        again = compute_grid(GAMMA_BASE, EPS0, n_angles=limit + 1)
        assert again.points is not big.points
        assert grid_bytes(again) == grid_bytes(big)

    def test_concurrent_lookups_and_evictions(self, monkeypatch):
        # room for two of the three grids: nearly every trace evicts another thread's
        memo = functools.lru_cache(maxsize=2)(contour_mod._trace.__wrapped__)
        monkeypatch.setattr(contour_mod, "_trace", memo)
        epsilons = (1e-3, 2e-3, 3e-3)
        cold = {eps: grid_bytes(cold_grid(GAMMA_BASE, eps, 16)) for eps in epsilons}
        errors, done = [], []

        def worker(offset):
            try:
                for i in range(30):
                    eps = epsilons[(i + offset) % 3]
                    assert grid_bytes(compute_grid(GAMMA_BASE, eps, n_angles=16)) == cold[eps]
                done.append(offset)
            except Exception as exc:  # reported below, on the test's own thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and sorted(done) == [0, 1, 2, 3]
        assert contour_mod._trace.cache_info().currsize <= 2
