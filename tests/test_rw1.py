import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from oracles import (
    brute_force_log_normconst_n2,
    dense_logdet_q,
    dense_quad_term,
    dense_spectral_weights,
    dense_structure,
    hellinger_grid,
    log_offset_constant_n2,
    rw1_hellinger_cumulants,
    rw1_hellinger_longdouble,
    rw1_local_limit,
    tabulation_window,
)
from priorscan import (
    DEFAULT_PRIOR,
    ContourUnreachableError,
    DomainError,
    Family,
    IngestionError,
    NumericalError,
    ParamPoint,
    PartialGridError,
    PriorSpec,
    RW1Model,
    Scale,
    circular_sensitivity,
    compute_grid,
    exact_sensitivity,
    ingest_timeseries,
    tabulate_posterior,
)
from priorscan import rw1
from priorscan.cli import DEFAULT_EPSILON, main
from priorscan.grids import trapezoid_mass
from priorscan.sensitivity import ENTRY_DTYPE
from priorscan.rw1 import (
    _dct2,
    _lattice_pass,
    _log_det,
    _log_target,
    _quad,
    _s_terms,
)
from rw1_experiment import synth_counts


def long_model(tmp_path_factory, n):
    counts = synth_counts(seed=n, n_months=n)
    path = tmp_path_factory.mktemp(f"data{n}") / "counts.csv"
    path.write_text("count\n" + "".join(f"{int(c)}\n" for c in counts))
    return ingest_timeseries(path)


@pytest.fixture(scope="module")
def model2004(tmp_path_factory):
    return long_model(tmp_path_factory, 2004)


@pytest.fixture(scope="module")
def model8004(tmp_path_factory):
    return long_model(tmp_path_factory, 8004)


def eigenvalues(n):
    """The eigenvalues of R that an ``n``-observation model keeps."""
    return RW1Model(y=np.zeros(n), kappa=1.0)._eig


def small_model(n=12, kappa=2.0, prior=DEFAULT_PRIOR, seed=7):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    y -= y.mean()
    return RW1Model(y=y, kappa=kappa, prior=prior)


def fresh(model, prior=None):
    """A copy of ``model``, under the gamma prior ``prior`` (a pair) if given, that keeps
    nothing yet: its lattice pass asks S for every node it uses (a model that has swept
    keeps its prior's side and asks for none)."""
    return RW1Model(model.y, model.kappa, model.prior if prior is None else ParamPoint(*prior))


class TestModel:
    def test_minimum_length(self):
        RW1Model(y=np.array([0.1, -0.1]), kappa=1.0)
        with pytest.raises(DomainError):
            RW1Model(y=np.array([0.1]), kappa=1.0)

    def test_data_is_frozen_and_copied(self):
        y = np.array([0.5, -0.5, 0.0])
        m = RW1Model(y=y, kappa=1.0)
        with pytest.raises(ValueError):
            m.y[0] = 9.0
        y[0] = 9.0
        assert m.y[0] == 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            RW1Model(y=np.array([0.1, np.nan]), kappa=1.0)
        with pytest.raises(DomainError):
            RW1Model(y=np.array([0.1, 0.2]), kappa=0.0)
        with pytest.raises(DomainError):
            RW1Model(y=np.array([0.1, 0.2]), kappa=1.0, prior=ParamPoint(0.0, 1.0))
        # S(u) holds kappa^2: a kappa whose square overflows is refused, not an OverflowError
        for kappa in (1.3407807929942597e154, 1e160, 1e300):
            with pytest.raises(DomainError, match="finite square"):
                RW1Model(y=np.array([0.1, 0.2]), kappa=kappa)
        RW1Model(y=np.array([0.1, 0.2]), kappa=1.3407807929942596e154)

    def test_default_prior(self):
        m = RW1Model(y=np.array([0.1, 0.2]), kappa=1.0)
        assert m.prior == ParamPoint(1.0, 0.005)

    def test_fields_cannot_outlive_their_lattice(self):
        # the base's scans and lattice pass kept on the model depend on y and kappa: a
        # reassigned kappa would be swept on the old ones, and a negative one accepted
        m = small_model(n=48, kappa=0.5)
        before = exact_sensitivity(m, 1e-3, n_angles=64).worst_case
        for name, value in (("kappa", 5.0), ("kappa", -1.0), ("y", np.zeros(48))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, value)
        assert exact_sensitivity(m, 1e-3, n_angles=64).worst_case == before
        moved = exact_sensitivity(dataclasses.replace(m, kappa=5.0), 1e-3, n_angles=64)
        fresh = exact_sensitivity(small_model(n=48, kappa=5.0), 1e-3, n_angles=64)
        assert moved.worst_case == fresh.worst_case != before


class TestStructure:
    def test_explicit_small_case(self):
        expected = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        assert np.array_equal(dense_structure(4), expected)

    def test_annihilates_constants(self):
        # R has constants in its null space, so the quadratic form of a constant
        # series is kappa y'y / 2 whatever the smoothing
        m = RW1Model(y=np.full(6, 0.7), kappa=2.0)
        taus = np.array([0.0, 1.0, 1e3, 1e9])
        values = _quad(m, taus) + data_constant(m)
        assert np.allclose(values, 0.5 * m.kappa * float(m.y @ m.y), rtol=1e-13)

    def test_matches_entrywise_oracle(self):
        # the production eigenbasis (orthonormal DCT-II) and spectrum rebuild R
        n = 9
        basis = np.column_stack([_dct2(e) for e in np.eye(n)])
        rebuilt = basis.T @ np.diag(eigenvalues(n)) @ basis
        assert np.max(np.abs(rebuilt - dense_structure(n))) <= 1e-14


class TestEigenvalues:
    def test_n2_closed_form(self):
        lam = eigenvalues(2)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(2.0, abs=1e-15)

    def test_middle_value_n4(self):
        assert eigenvalues(4)[2] == pytest.approx(2.0, abs=1e-15)

    def test_rank_deficiency_is_exact(self):
        for n in (2, 5, 96, 192):
            assert eigenvalues(n)[0] == 0.0

    def test_sorted_and_bounded(self):
        lam = eigenvalues(50)
        assert np.all(np.diff(lam) > 0.0)
        assert lam[-1] < 4.0

    def test_against_dense_spectrum(self):
        lam = eigenvalues(10)
        dense = np.linalg.eigvalsh(dense_structure(10))
        assert np.max(np.abs(lam - dense)) <= 1e-9

    def test_rejects_tiny_n(self):
        # the model refuses a single observation before it builds the spectrum
        with pytest.raises(DomainError):
            eigenvalues(1)


def logdet(tau, kappa, n):
    """``log det(tau R + kappa I)`` from the production closed form (``y`` plays no part)."""
    return float(_log_det(RW1Model(y=np.zeros(n), kappa=kappa), np.array([tau]))[0])


def data_constant(model):
    """``kappa |y|^2 / 2``, which the production quadratic form leaves out."""
    return 0.5 * model.kappa * float(model.y @ model.y)


def quad(model, tau):
    """``kappa^2 y' Q^-1 y / 2`` from the production spectral sum, with the
    constant ``kappa |y|^2 / 2`` added back."""
    return float(_quad(model, np.array([tau]))[0]) + data_constant(model)


class TestSpectralSolve:
    def test_against_dense_solve(self, rng):
        from scipy.fft import idct

        n = 40
        tau, kappa = 2.7, 0.6
        y = rng.normal(0.0, 1.0, n)
        v = idct(_dct2(y) / (tau * eigenvalues(n) + kappa), norm="ortho")
        dense = np.linalg.solve(tau * dense_structure(n) + kappa * np.eye(n), y)
        assert np.allclose(v, dense)

    def test_large_system_residual(self, rng):
        # Q^-1 y in the eigenbasis, checked by its band residual; the production
        # quadratic form is kappa^2 y'v / 2 of this solve
        from scipy.fft import idct

        n = 10000
        tau, kappa = 0.8, 1.3
        y = rng.normal(0.0, 1.0, n)
        v = idct(_dct2(y) / (tau * eigenvalues(n) + kappa), norm="ortho")
        diag = tau * np.r_[1.0, 2.0 * np.ones(n - 2), 1.0] + kappa
        off = np.full(n - 1, -tau)
        residual = diag * v - y
        residual[:-1] += off * v[1:]
        residual[1:] += off * v[:-1]
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(y))
        m = RW1Model(y=y, kappa=kappa)
        assert quad(m, tau) == pytest.approx(0.5 * kappa**2 * float(y @ v), rel=1e-12)


class TestLogdetQ:
    def test_zero_tau_closed_form(self):
        assert logdet(0.0, 2.0, 5) == pytest.approx(5.0 * math.log(2.0), abs=1e-14)

    def test_against_dense(self):
        assert abs(logdet(1.0, 1.0, 8) - dense_logdet_q(1.0, 1.0, 8)) <= 1e-9
        assert abs(logdet(3.7, 0.2, 25) - dense_logdet_q(3.7, 0.2, 25)) <= 1e-9

    def test_monotone_in_tau(self):
        assert logdet(2.0, 1.0, 10) > logdet(1.0, 1.0, 10)

    @pytest.mark.parametrize("n", [2, 3, 192, 2004, 8004])
    def test_closed_form_matches_eigenvalue_sum(self, n):
        # the closed form against an exactly rounded sum of one log per eigenvalue
        us = np.linspace(-50.0, 50.0, 101)
        eig = eigenvalues(n)
        for kappa in (0.02, 0.7, 4.2):
            values = _log_det(RW1Model(y=np.zeros(n), kappa=kappa), np.exp(us))
            expected = np.array([math.fsum(np.log(math.exp(u) * eig + kappa)) for u in us])
            assert np.max(np.abs(values - expected) / np.abs(expected)) <= 1e-13
            assert logdet(0.0, kappa, n) == pytest.approx(n * math.log(kappa), rel=1e-14)


class TestQuadTerm:
    def test_zero_data(self):
        m = RW1Model(y=np.zeros(6), kappa=2.0)
        assert quad(m, 1.3) == 0.0

    def test_zero_tau_closed_form(self):
        m = small_model()
        expected = 0.5 * m.kappa * float(m.y @ m.y)
        assert quad(m, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_against_dense(self):
        m = small_model(n=12)
        for tau in (0.05, 0.7, 14.0):
            expected = dense_quad_term(m.y, tau, m.kappa)
            assert quad(m, tau) == pytest.approx(expected, rel=1e-9)

    def test_batch_agrees_with_scalar_route(self):
        # two independent routes: spectral decomposition versus a dense
        # LAPACK solve; they must coincide wherever both are well conditioned
        m = small_model(n=30)
        taus = np.array([1e-3, 0.01, 0.5, 1.0, 20.0, 1e4])
        batch = _quad(m, taus) + data_constant(m)
        scalar = np.array([dense_quad_term(m.y, t, m.kappa) for t in taus])
        assert np.allclose(batch, scalar, rtol=1e-10)

    def test_batch_survives_extreme_smoothing(self):
        # at tau = e^39 the elimination pivot of tau R + kappa I would
        # cancel to zero in float64; the spectral form must keep the
        # kappa regularization and approach the exact limit
        rng = np.random.default_rng(3)
        y = rng.normal(1.0, 1.0, 16)
        m = RW1Model(y=y, kappa=2.0)
        val = quad(m, math.exp(39.0))
        limit = 0.5 * m.kappa * y.sum() ** 2 / y.size
        assert math.isfinite(val)
        assert val == pytest.approx(limit, rel=1e-6)


class TestSpectralWeights:
    @pytest.mark.parametrize("n", [2, 3, 192])
    def test_fast_transform_matches_dense_basis(self, n):
        m = small_model(n=n, seed=n)
        expected = dense_spectral_weights(m.y) * eigenvalues(n)
        assert np.allclose(m._yhat2_eig, expected, rtol=1e-12, atol=1e-14 * expected.max())

    @pytest.mark.parametrize("n", [1, 2, 3, 192, 2004, 8004])
    def test_fft_dct_matches_scipy(self, n):
        from scipy.fft import dct

        y = np.random.default_rng(n).normal(3.0, 2.0, n)
        expected = dct(y, type=2, norm="ortho")
        assert np.all(np.abs(_dct2(y) - expected) <= 1e-14 * np.abs(expected).max())


def log_target(model, tau):
    """Production log density of ``u = log tau`` at one ``tau``, with the
    constant ``kappa |y|^2 / 2`` that ``S`` leaves out added back."""
    us = np.array([math.log(tau)])
    g = _log_target(model, us, _s_terms(model, us))
    return float(g[0]) + data_constant(model)


class TestLogUnnormalizedPosterior:
    def test_against_dense_assembly(self):
        # the density of log tau carries the Jacobian tau: + log tau
        m = small_model(n=10, kappa=1.4, prior=ParamPoint(1.2, 0.3))
        for tau in (0.2, 1.0, 8.0):
            a, b = m.prior.as_tuple()
            expected = (
                (a + (m.n - 1) / 2.0 - 1.0) * math.log(tau)
                - 0.5 * dense_logdet_q(tau, m.kappa, m.n)
                - b * tau
                + dense_quad_term(m.y, tau, m.kappa)
                + math.log(tau)
            )
            assert log_target(m, tau) == pytest.approx(expected, rel=1e-10)

    def test_weaker_rate_shifts_mass_to_larger_tau(self):
        taus = np.exp(np.linspace(-4.0, 10.0, 400))
        y = small_model(n=24, seed=11).y
        modes = []
        for beta in (1.0, 0.01):
            m = RW1Model(y=y, kappa=2.0, prior=ParamPoint(1.0, beta))
            dens = [log_target(m, t) for t in taus]
            modes.append(taus[int(np.argmax(dens))])
        assert modes[1] > modes[0]


def exact_distance(model, p0, p1):
    """Posterior Hellinger distance between gamma priors ``p0`` and ``p1``: a lattice
    pass anchored at ``p0`` with the one point ``p1``."""
    return float(_lattice_pass(fresh(model, p0.as_tuple()), [p1.as_tuple()])[0])


class TestNormconst:
    def test_unconverged_prior_is_named(self, monkeypatch):
        # a far, sharply peaked prior needs finer nodes than the others of
        # the sweep; capping the refinement must name it, not the base
        m = small_model(n=24)  # prior (1.0, 0.005)
        monkeypatch.setattr(rw1, "_MAX_LEVEL", 3)
        _lattice_pass(m, [(1.01, 0.005), (1.0, 0.0051)])
        with pytest.raises(NumericalError, match=r"prior \(200\.0, 1\.0\) did not converge"):
            _lattice_pass(m, [(1.01, 0.005), (200.0, 1.0)])

    def test_self_convergence_under_tolerance_change(self, monkeypatch):
        m = small_model(n=24)
        p0, p1 = ParamPoint(1.0, 0.005), ParamPoint(1.1, 0.006)
        monkeypatch.setattr(rw1, "_REL_TOL", 1e-6)
        loose = exact_distance(m, p0, p1)
        monkeypatch.setattr(rw1, "_REL_TOL", 1e-12)
        tight = exact_distance(m, p0, p1)
        assert abs(loose - tight) <= 1e-6

    def test_diverging_posterior_is_reported(self):
        # alpha large and beta tiny pushes the mode beyond any reasonable
        # log-tau range; the scan must fail loudly, not hang or lie
        m = small_model(n=8)
        with pytest.raises(NumericalError):
            exact_distance(m, ParamPoint(1e6, 1e-300), ParamPoint(1.0, 0.005))


def contour_priors(model, eps, n_angles):
    """The anchor, the midpoints and the points of an ``n_angles`` sweep at ``eps``."""
    anchor = np.array(model.prior.as_tuple())
    grid = compute_grid(PriorSpec(Family.GAMMA, model.prior), eps, n_angles=n_angles)
    points = np.column_stack([grid.points.point.gamma1, grid.points.point.gamma2])
    return anchor, 0.5 * (anchor + points), points


@pytest.mark.parametrize("eps", [1e-4, 0.5])
@pytest.mark.parametrize("fixture", ["model192", "model2004"])
def test_sweep_windows_match_reference_walk(fixture, eps, request):
    # each prior of a sweep scanned alone has the window an independent outward walk finds
    model = request.getfixturevalue(fixture)
    anchor, midpoints, points = contour_priors(model, eps, 16)
    for a, b in np.vstack([anchor, midpoints, points]):
        lo, hi = rw1._windows(fresh(model, (a, b)), (), 60.0)
        expected = tabulation_window(model.y, model.kappa, a, b, drop=60.0)
        assert (lo * rw1._LATTICE_STEP, hi * rw1._LATTICE_STEP) == expected


def sweep_window(model, points):
    """The level-0 window, in coarse nodes, of a lattice pass over the model's prior,
    ``points`` and their midpoints, on a fresh copy of ``model``."""
    return rw1._windows(fresh(model), points, rw1._WINDOW_DROP)


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3, 0.5])
@pytest.mark.parametrize("fixture", ["model192", "model2004", "model8004"])
def test_sweep_window_covers_every_prior(fixture, eps, request):
    # the pass scans the anchor alone and widens by the tilt; its window must
    # still hold the window of every prior of the sweep scanned alone, which the
    # test above ties to the outward walk
    model = request.getfixturevalue(fixture)
    anchor, midpoints, points = contour_priors(model, eps, 16)
    lo, hi = sweep_window(model, points)
    for prior in np.vstack([anchor, midpoints, points]):
        k_lo, k_hi = rw1._windows(fresh(model, prior), (), 60.0)
        assert lo <= k_lo and k_hi <= hi


@pytest.mark.parametrize("far", [(2000.0, 1.0), (1.0, 1e3), (800.0, 0.005), (1e4, 0.01)])
def test_far_prior_in_a_sweep(model2004, far):
    # a prior whose posterior lies far from the anchor's (the model's (1.0, 0.005)): its tilt
    # must neither overflow nor round E0[expm1(t)] = 2 E0[e] + E0[e^2] to -1 or below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = _lattice_pass(model2004, [(1.01, 0.005), far])
    assert h[1] == 1.0


def far_right_model(log_rate):
    """Zero data and a prior rate of ``exp(log_rate)``: at epsilon 0.3 the sweep's
    priors have posterior modes near the right end of the log-tau scan range."""
    return RW1Model(y=np.zeros(24), kappa=1.0, prior=ParamPoint(1.0, math.exp(log_rate)))


def test_far_right_sweep_scans_once(monkeypatch):
    # past the scan range the one window scan of the sweep widens until every prior's
    # posterior is in; the ratios are those of the walk and per-prior rescans it replaced
    model = far_right_model(-298.0)
    windows, scans = rw1._windows, []

    def counted(*args):
        scans.append(None)
        return windows(*args)

    monkeypatch.setattr(rw1, "_windows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = exact_sensitivity(model, 0.3, n_angles=64).entries.ratio
    assert len(scans) == 1
    assert ratios[::8] == pytest.approx([0.999999999999876, 0.999999999999988, 0.9999999999953015,
                                         0.9999999999999748, 1.0000000000008236, 0.9999999999999691,
                                         0.9999999999999756, 1.000000000000363], rel=1e-12)


def test_escaping_contour_prior_is_named():
    # a rate e^-299 keeps the anchor's mode inside the scan range but not every
    # contour prior's: the error names a midpoint or point, not the anchor
    model = far_right_model(-299.0)
    anchor, midpoints, points = contour_priors(model, 0.3, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="escaped the log-tau scan range") as exc:
            exact_sensitivity(model, 0.3, n_angles=64)
    named = tuple(float(v) for v in re.search(r"prior \((\S+), (\S+)\)", str(exc.value)).groups())
    assert named != tuple(anchor)
    assert named in set(map(tuple, np.vstack([midpoints, points]).tolist()))


def test_tail_that_does_not_decay_is_named():
    # past the data's mode the log density of an alternating series dips by about
    # 29, then rises with slope alpha = 0.01 and stays within 60 of the peak to
    # log tau = 600, where a rate of 1e-300 has not yet bent it down
    model = RW1Model(y=2.5 * (-1.0) ** np.arange(24), kappa=1.0, prior=ParamPoint(0.01, 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"posterior tail for prior \(0\.01, 1e-300\) does not decay"):
            exact_sensitivity(model, 1e-3, n_angles=8)


def test_non_finite_sweep_integrand_is_named(model96):
    # a shape of 1e308 overflows the tilt (da u) inside the anchor's window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite posterior integrand at log tau = "):
            _lattice_pass(model96, [(1.01, 0.005), (1e308, 0.005)])


@pytest.mark.parametrize("point", [(1e306, 0.005), (1.0, 1e308)])
def test_non_finite_sums_are_named(point):
    # a shape of 1e306 keeps the window closed (its log density, near 1e308, absorbs the
    # drop of 60) and a rate of 1e308 overflows the tilt: the quadrature names the prior
    model = RW1Model(y=np.zeros(24), kappa=1.0)
    message = re.escape(f"quadrature for prior {tuple(map(float, point))} is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            _lattice_pass(model, [(1.01, 0.005), point])


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
def test_dominant_prior_moves_the_posterior_as_far_as_itself(counts_csv, eps):
    # a prior of shape 1e4 outweighs 192 months of data, so every ratio is about 1; its
    # posterior (log-tau sd about 0.01) falls between level-0 nodes 0.5 apart, so the
    # integrands must be scaled by their largest values on finer nodes
    model = ingest_timeseries(counts_csv, prior=ParamPoint(10000.0, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = exact_sensitivity(model, eps, n_angles=64).entries.ratio
    assert np.max(np.abs(ratios - 1.0)) <= 1e-3


def rw1_cli(tmp_path, capsys, counts, *args):
    """Exit code, stderr lines and JSON report of ``priorscan rw1`` on ``counts``."""
    path = write_counts(tmp_path / "counts.csv", [int(c) for c in counts])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rw1", "--data", str(path), *args, "--outdir", str(tmp_path / "out")])
    report = tmp_path / "out" / "rw1.json"
    return code, capsys.readouterr().err.splitlines(), json.loads(report.read_text()) if code == 0 else None


def test_concentrated_posterior_through_the_cli(tmp_path, capsys):
    # prior shape 7980 against a kappa of 8386 on 96 months: a log-tau sd near 0.01
    kappa, prior = 8385.863274145486, ParamPoint(7979.85484355881, 0.0032928288300745796)
    code, lines, report = rw1_cli(
        tmp_path, capsys, synth_counts(seed=3, n_months=96), "--kappa", repr(kappa),
        "--prior", f"{prior.gamma1!r},{prior.gamma2!r}", "--epsilon", "0.07024303048935247")
    assert code == 0
    assert [line for line in lines if line.startswith("warning:")] == [
        "warning: super-sensitivity detected (worst case > 1)"]
    # every 50th angle against a long-double trapezoid over the window of each prior
    # and midpoint (an independent walk), 4096 intervals per coarse node, t centred
    model = ingest_timeseries(tmp_path / "counts.csv", kappa=kappa, prior=prior)
    entries = report["entries"][::50]
    anchor = np.array(prior.as_tuple())
    points = np.array([(e["gamma1"], e["gamma2"]) for e in entries])
    windows = [tabulation_window(model.y, kappa, a, b, drop=60.0)
               for a, b in np.vstack([anchor, points, 0.5 * (anchor + points)])]
    lo, hi = min(w[0] for w in windows) - 0.5, max(w[1] for w in windows) + 0.5
    us = np.linspace(lo, hi, round((hi - lo) / rw1._LATTICE_STEP) * 4096 + 1)
    g = _log_target(model, us, _s_terms(model, us)).astype(np.longdouble)
    w = np.exp(g - g.max())
    w[[0, -1]] *= 0.5
    w /= w.sum()
    u = us.astype(np.longdouble)
    da, db = (points - anchor).T.astype(np.longdouble)
    t = np.multiply.outer(da, u) - np.multiply.outer(db, np.exp(u))
    t -= (t @ w)[:, None]
    log_bc = np.log1p(np.expm1(t / 2) @ w) - 0.5 * np.log1p(np.expm1(t) @ w)
    expected = np.sqrt(-np.expm1(log_bc)).astype(float)
    assert expected.min() < 1e-5 and expected.max() == 1.0
    assert [e["h_post"] for e in entries] == pytest.approx(expected, rel=1e-9)


def walk_counts():
    """96 monthly counts of a squared random walk, as CI writes ``counts.csv``."""
    return np.round((30.0 + np.cumsum(np.random.default_rng(7).normal(0.0, 0.4, 96))) ** 2)


@pytest.mark.parametrize("engine,error", [
    ("exact", "quadrature for prior (100000000.0, 1000000.0) is not finite"),
    ("reweight", "posterior for prior (100000000.0, 1000000.0) is too narrow for a 2001-point tabulation: "
                 "3 points lie within exp(-28) of its peak, fewer than 16"),
], ids=["exact", "reweight"])
def test_posterior_narrower_than_the_lattice_exits_4(tmp_path, capsys, engine, error):
    # shape 1e8 puts the posterior's log-tau sd near 1e-4, below the spacing of any
    # coarse pass (its sums overflow) and of the tabulation: the error names the prior
    # after no warning
    code, lines, _ = rw1_cli(tmp_path, capsys, walk_counts(), "--prior", "1e8,1e6", "--epsilon", "0.01",
                             "--engine", engine)
    assert code == 4
    assert [line for line in lines if line.startswith(("warning:", "error:"))] == [f"error: {error}"]


def narrow_model(tmp_path, shape):
    path = write_counts(tmp_path / "counts.csv", [int(c) for c in walk_counts()])
    return ingest_timeseries(path, prior=ParamPoint(shape, shape / 100.0))


@pytest.mark.parametrize("shape", [1e6, 3e6])
def test_narrow_posterior_tabulates_as_finely_as_needed(tmp_path, shape):
    # 30 and 17 of the 2001 points lie within exp(-28) of the peak: the reweighted ratios
    # agree with those of a tabulation 50 times finer
    model = narrow_model(tmp_path, shape)
    grid = compute_grid(PriorSpec(Family.GAMMA, model.prior), 0.00354, n_angles=64)
    coarse, fine = (circular_sensitivity(tabulate_posterior(model, n_points=k), grid).entries.ratio
                    for k in (2001, 100001))
    assert coarse == pytest.approx(fine, rel=1e-8)


@pytest.mark.parametrize("shape", [5e6, 1e7, 1e8])
def test_posterior_too_narrow_to_tabulate_is_refused(tmp_path, shape):
    # 14, 10 and 3 points within exp(-28) of the peak: reweighted, their worst cases were off
    # by 3.5e-5, 1.9e-2 and 0.34 relative, with no warning
    model = narrow_model(tmp_path, shape)
    name = re.escape(f"prior {(shape, shape / 100.0)} is too narrow for a 2001-point tabulation")
    with pytest.raises(NumericalError, match=name):
        tabulate_posterior(model)


@pytest.mark.parametrize("shape", [1.5e6, 2.2e6, 2.5e6, 2.8e6, 3e6, 3.3e6, 3.6e6])
def test_large_prior_shape_answers_as_the_reweighting_route(tmp_path, shape):
    # at shape 1.5e6, a u and b e^u are 6.8e6 and 1.35e6: summed as they stand, they left
    # about 1e-9 nats of rounding on each node, and the lattice's sums stalled above their
    # 1e-11 tolerance from level 11 to 16. Taken about a node near the peak they settle, and
    # the ratios are the reweighting route's: at most 1.6e-7 apart, at shape 3.6e6, where
    # the route's 2001-point table is that far off a 100001-point one
    model = narrow_model(tmp_path, shape)
    grid = compute_grid(PriorSpec(Family.GAMMA, model.prior), DEFAULT_EPSILON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = exact_sensitivity(model, DEFAULT_EPSILON).entries.ratio
    reweighted = circular_sensitivity(tabulate_posterior(model), grid).entries.ratio
    assert np.max(np.abs(exact - reweighted)) <= 1e-6


def test_a_screened_scan_names_the_non_finite_node_a_full_scan_names(monkeypatch):
    # kappa |y|^2 / 2 = 1.6e308 is finite, so the scan screens its nodes; a log density is not
    # finite on some node, so it evaluates the nodes it skipped and names the first such node,
    # as a scan of every node does
    model = RW1Model(y=math.sqrt(1e307) * (-1.0) ** np.arange(4), kappa=8.0,
                     prior=ParamPoint(1e306, 1e306 * math.exp(-45)))
    message = re.escape("non-finite posterior integrand at log tau = 49.5")
    lo, hi = -rw1._SCAN_WIDEN, rw1._SCAN_WIDEN
    with pytest.raises(NumericalError, match=message):
        rw1._scan(fresh(model), lo, hi, np.full(hi - lo + 1, np.nan))
    skipped, scan = [], rw1._scan  # per call, the nodes given without quad (None: not given)
    monkeypatch.setattr(rw1, "_scan", lambda *args: (
        skipped.append(np.isnan(args[3]).sum() if len(args) > 3 else None), scan(*args))[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            tabulate_posterior(model)
    assert skipped[0] is None and 0 < skipped[1] < hi - lo + 1 and len(skipped) == 2


def contract_draws(seed, count):
    """Series length, kappa, prior and epsilon of ``count`` seeded draws: n 24, 96 or
    192, and kappa, shape, rate and epsilon log-uniform on [1e-2, 1e8], [1e-2, 1e4],
    [1e-8, 1e4] and [1e-4, 0.5]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([24, 96, 192]))
        kappa, a, b, eps = 10.0 ** rng.uniform([-2, -2, -8, -4], [8, 4, 4, math.log10(0.5)])
        yield n, float(kappa), ParamPoint(float(a), float(b)), float(eps)


@pytest.fixture(scope="module")
def contract_csvs(tmp_path_factory):
    return {n: write_counts(tmp_path_factory.mktemp(f"series{n}") / "counts.csv",
                            synth_counts(seed=n, n_months=n).astype(int)) for n in (24, 96, 192)}


def test_exact_sweeps_answer_or_name_their_error(contract_csvs):
    # every draw gives distances in [0, 1] or a contour or numerical error (exit 3 or
    # 4), with no numpy warning; a NaN distance would be a DomainError here
    answered = 0
    for n, kappa, prior, eps in contract_draws(2, 300):
        model = ingest_timeseries(contract_csvs[n], kappa=kappa, prior=prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                h = exact_sensitivity(model, eps, n_angles=64).entries.h_post
            except (ContourUnreachableError, PartialGridError, NumericalError):
                continue
        assert np.all((h >= 0.0) & (h <= 1.0)), (n, kappa, prior, eps)
        answered += 1
    assert answered >= 290


def test_rw1_command_answers_or_exits_documented(tmp_path, capsys, contract_csvs):
    for i, (n, kappa, prior, eps) in enumerate(contract_draws(32, 16)):
        argv = ["rw1", "--data", str(contract_csvs[n]), "--kappa", repr(kappa), "--prior",
                f"{prior.gamma1!r},{prior.gamma2!r}", "--epsilon", repr(eps), "--n-angles", "64",
                "--outdir", str(tmp_path / str(i))]
        code = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code in (0, 3, 4), (argv, lines)
        assert not [line for line in lines if " encountered in " in line], (argv, lines)  # numpy's
        assert sum(line.startswith("error: ") for line in lines) == (code != 0), (argv, lines)
        if code == 0:
            h = [e["h_post"] for e in json.loads((tmp_path / str(i) / "rw1.json").read_text())["entries"]]
            assert all(0.0 <= v <= 1.0 for v in h), argv


def entry_points(entries):
    return np.column_stack([entries.point.gamma1, entries.point.gamma2])


# The seed and the count were fixed before the first run. The smallest distances of these
# draws, h from 1e-12 to 3e-10, are held at 1e-8 too, which only a variance-form sum meets:
# a difference of two log1p terms has a float64 floor near 2e-17 in h.
ORACLE_DRAWS = list(contract_draws(7, 60))


@pytest.mark.parametrize("draw", range(len(ORACLE_DRAWS)))
def test_exact_sweep_matches_the_long_double_oracle(draw, contract_csvs):
    # every direction of 8 agrees with an oracle that scans each prior's own posterior
    # over [-300, 300] in long double and shares none of the engine's window logic
    n, kappa, prior, eps = ORACLE_DRAWS[draw]
    model = ingest_timeseries(contract_csvs[n], kappa=kappa, prior=prior)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = exact_sensitivity(model, eps, n_angles=8).entries
    expected = rw1_hellinger_longdouble(model.y, kappa, prior.as_tuple(), entry_points(entries))
    assert entries.h_post == pytest.approx(expected, rel=1e-8, abs=0.0)


def sweep(model, eps, engine):
    """One engine's sweep about the model's own prior."""
    if engine == "exact":
        return exact_sensitivity(model, eps)
    grid = compute_grid(PriorSpec(Family.GAMMA, model.prior), eps)
    return circular_sensitivity(tabulate_posterior(model), grid)


@pytest.mark.parametrize("engine", ["exact", "reweight"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
@pytest.mark.parametrize("fixture", ["model192", "model2004", "model8004"])
def test_sweep_matches_the_cumulant_oracle(fixture, eps, engine, request):
    # to third order in the prior change, H^2 follows from the base posterior's cumulants, with
    # S from scipy's DCT (the long-double oracle's dense basis is 512 MB at n = 8004): the next
    # order leaves 0.076, 0.022 and 0.0048 eps^2 relative on these models, on either engine (the
    # reweighting table's own error is 9e-11 or less)
    model = request.getfixturevalue(fixture)
    entries = sweep(model, eps, engine).entries
    expected = rw1_hellinger_cumulants(model.y, model.kappa, model.prior.as_tuple(), entry_points(entries))
    assert np.max(np.abs(entries.h_post / expected - 1.0)) <= 0.2 * eps**2


@pytest.mark.parametrize("engine", ["exact", "reweight"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
@pytest.mark.parametrize("fixture", ["model192", "model2004", "model8004"])
def test_worst_case_tends_to_the_local_limit(fixture, eps, engine, request):
    # as eps -> 0 the worst ratio tends to sqrt(lambda_max(C_prior^-1 C_post)): 0.516, 0.280
    # and 0.137 on these models, which the sweeps exceed by 1.7-1.8e-3 at eps 1e-3 and by
    # 2.7e-5 to 1.1e-4 at eps 1e-4
    model = request.getfixturevalue(fixture)
    _, limit = rw1_local_limit(model.y, model.kappa, model.prior.as_tuple())
    assert 0.0 <= sweep(model, eps, engine).worst_case / limit - 1.0 <= 2.5 * eps


def test_smallest_distances_at_benchmark_size_match_the_long_double_oracle(model2004):
    # n = 2004 and epsilon 1e-4, as the benchmark sweeps: the four smallest distances (h near
    # 1.5e-6) are within 1.2e-13 in variance form; a difference of two log1p terms misses
    # them by 6e-12 to 1e-11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = exact_sensitivity(model2004, 1e-4).entries
    nearest = np.argsort(entries.h_post)[:4]
    expected = rw1_hellinger_longdouble(model2004.y, model2004.kappa, model2004.prior.as_tuple(),
                                        entry_points(entries)[nearest])
    assert entries.h_post[nearest] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_second_mode_behind_a_deep_valley(tmp_path):
    # a contour prior whose posterior has its mode at log tau = 0 and a local maximum 433
    # nats lower at 15, where the base's posterior sits: the valley between them is far
    # deeper than exp(-60), and the base's window alone gave h = 0.358 here
    path = write_counts(tmp_path / "counts.csv", synth_counts(seed=192, n_months=192))
    model = ingest_timeseries(path, kappa=5.4715611344480815,
                              prior=ParamPoint(150.0515154316523, 4.700213543157473e-05))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = exact_sensitivity(model, 0.3416744132323708, n_angles=64).entries
    i = np.argmin(np.hypot(entries.point.gamma1 / 39.3199 - 1.0, entries.point.gamma2 / 1.29384e-05 - 1.0))
    point = entry_points(entries)[i]
    assert point == pytest.approx([39.3199, 1.29384e-05], rel=1e-5)
    expected = rw1_hellinger_longdouble(model.y, model.kappa, model.prior.as_tuple(), [point])[0]
    assert expected == 1.0
    assert abs(entries.h_post[i] - expected) <= 1e-8


def test_narrow_mode_between_coarse_nodes():
    # y is one cosine of the spectrum, so S drops by c = kappa A^2 / 2 = 26321 near log tau
    # 4.25. The point's posterior has a mode on the node at log tau 3 and one of shape 4600
    # (log-tau sd 0.015) at 8.25, 20 nats higher, halfway between level-0 nodes: those two
    # nodes fall 104 and 128 nats below it, more than exp(-60) below the node at 3. The
    # anchor's shape is 22.9 less, which leaves its narrow mode 100 nats below its other.
    n = 24
    cosine = np.cos(np.pi * (2 * np.arange(1, n + 1) - 1) / (2 * n))
    point = (4600.0 - (n - 1) / 2, 1.0778679429956248)
    anchor = (point[0] - 22.9, point[1])
    model = RW1Model(y=209.97596700098043 * cosine / np.linalg.norm(cosine), kappa=1.193988928592151,
                     prior=ParamPoint(*anchor))
    lo, hi = rw1._windows(model, [point], 60.0)
    assert lo * rw1._LATTICE_STEP <= 3.0 and 8.25 < hi * rw1._LATTICE_STEP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = _lattice_pass(model, [point])[0]
    expected = rw1_hellinger_longdouble(model.y, model.kappa, anchor, [point])[0]
    assert 0.9 < expected < 1.0
    assert h == pytest.approx(expected, rel=1e-8)


class TestExactPosteriorHellinger:
    def test_identity(self):
        m = small_model()
        assert exact_distance(m, ParamPoint(1.0, 0.1), ParamPoint(1.0, 0.1)) == 0.0

    def test_range(self):
        m = small_model()
        h = exact_distance(m, ParamPoint(1.0, 0.005), ParamPoint(1.1, 0.006))
        assert 0.0 < h < 1.0

    def test_against_tabulated_grid_distance(self):
        y = small_model(n=36, seed=5).y
        p0, p1 = ParamPoint(1.0, 0.005), ParamPoint(1.2, 0.004)
        m0 = RW1Model(y=y, kappa=2.0, prior=p0)
        m1 = RW1Model(y=y, kappa=2.0, prior=p1)
        g0 = tabulate_posterior(m0, n_points=4001).posterior
        g1 = tabulate_posterior(m1, n_points=4001).posterior
        exact = exact_distance(m0, p0, p1)
        assert abs(exact - hellinger_grid(g0, g1)) <= 1e-6

    def test_brute_force_bhattacharyya_n2(self):
        y = np.array([0.4, -0.1])
        kappa = 2.2
        m = RW1Model(y=y, kappa=kappa)
        p0, p1 = ParamPoint(1.0, 0.4), ParamPoint(1.6, 0.9)
        mid = ParamPoint(1.3, 0.65)
        logs = {}
        for p in (p0, p1, mid):
            logs[p] = brute_force_log_normconst_n2(
                y, kappa, p.gamma1, p.gamma2
            ) - log_offset_constant_n2(y, kappa, p.gamma1, p.gamma2)
        bc = math.exp(logs[mid] - 0.5 * (logs[p0] + logs[p1]))
        expected = math.sqrt(max(0.0, 1.0 - bc))
        assert exact_distance(m, p0, p1) == pytest.approx(expected, abs=1e-8)


def fine_trapezoid(model, prior, lo, hi, per_node=2**10):
    """Nodes ``u`` over coarse nodes ``lo .. hi``, ``per_node`` intervals per coarse
    step, with trapezoid weights times the posterior density under ``prior``
    divided by its largest value."""
    us = np.linspace(lo * rw1._LATTICE_STEP, hi * rw1._LATTICE_STEP, (hi - lo) * per_node + 1)
    g = _log_target(fresh(model, prior), us, _s_terms(model, us))
    w = np.exp(g - g.max()) * (us[1] - us[0])
    w[[0, -1]] *= 0.5
    return us, w


class TestDeepFirstLevel:
    # At n = 8004 the window spans 4 to 7 coarse intervals, so level 4 is the first
    # with 64 intervals: the lattice pass sums levels 0 to 3 in one pass, then
    # refines from level 4 on.
    anchor, other = (1.0, 0.005), (3.0, 0.001)

    def window(self, model):
        lo, hi = sweep_window(model, [self.other])  # the model's prior is the anchor
        assert 4 <= hi - lo < 8
        return lo - 2, hi + 2  # two coarse nodes a side more than the lattice pass takes

    def test_hellinger_against_fine_trapezoid(self, model8004):
        # log BC = log E0[exp(d/2)] - log E0[exp(d)] / 2, d the log prior ratio
        us, w = fine_trapezoid(model8004, self.anchor, *self.window(model8004))
        da, db = np.subtract(self.other, self.anchor)
        d = da * us - db * np.exp(us)
        d -= d.max()
        log_bc = math.log(w @ np.exp(d / 2) / w.sum()) - 0.5 * math.log(w @ np.exp(d) / w.sum())
        expected = math.sqrt(-math.expm1(log_bc))
        assert 0.05 < expected < 0.9
        h = exact_distance(model8004, ParamPoint(*self.anchor), ParamPoint(*self.other))
        assert h == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_sweep_agrees_with_reweighting(self, model8004, eps):
        exact = exact_sensitivity(model8004, eps, n_angles=64)
        grid = compute_grid(PriorSpec(Family.GAMMA, model8004.prior), eps, n_angles=64)
        reweighted = circular_sensitivity(tabulate_posterior(model8004), grid)
        assert len(exact.entries) == len(reweighted.entries) == 64
        assert np.array_equal(exact.entries.phi, reweighted.entries.phi)
        assert np.max(np.abs(exact.entries.ratio - reweighted.entries.ratio)) <= 1e-4


def sweep_priors(model, eps):
    """The anchor and points of a 400-angle sweep, and the lattice pass's window
    over them and their midpoints in coarse nodes."""
    anchor, _, points = contour_priors(model, eps, 400)
    lo, hi = sweep_window(model, points)
    return anchor, points, lo, hi


@pytest.mark.parametrize("eps", [1e-4, 1e-2])
@pytest.mark.parametrize("fixture", ["model192", "model2004", "model8004"])
def test_sweep_stops_at_first_level_with_64_intervals(fixture, eps, request):
    # the integrands are analytic and cut where they have fallen by exp(-60), so
    # trapezoid sums converge geometrically: the first refinement meets the tolerance
    model = request.getfixturevalue(fixture)
    _, _, lo, hi = sweep_priors(model, eps)
    model = fresh(model)
    exact_sensitivity(model, eps, n_angles=400)
    (levels,) = model._passes.values()  # the levels the pass summed
    assert max(levels) <= max(1, math.ceil(math.log2(64 / (hi - lo))))


@pytest.mark.parametrize("eps", [1e-4, 1e-2])
@pytest.mark.parametrize("fixture", ["model192", "model2004"])
def test_sweep_distances_against_fine_trapezoid(fixture, eps, request):
    # log BC = log1p(E0[expm1(t/2)]) - log1p(E0[expm1(t)]) / 2 on a fine lattice,
    # t the log prior ratio less its mean under the base posterior
    model = request.getfixturevalue(fixture)
    anchor, points, lo, hi = sweep_priors(model, eps)
    us, w = fine_trapezoid(model, tuple(anchor), lo - 2, hi + 2, per_node=2**8)
    w /= w.sum()
    da, db = (points - anchor).T
    t = np.multiply.outer(da, us) - np.multiply.outer(db, np.exp(us))
    t -= (t @ w)[:, None]
    log_bc = np.log1p(np.expm1(t / 2) @ w) - 0.5 * np.log1p(np.expm1(t) @ w)
    expected = np.sqrt(-np.expm1(log_bc))
    h = _lattice_pass(model, points)
    assert np.max(np.abs(h - expected)) <= 1e-13


@pytest.mark.parametrize("fixture", ["model192", "model2004", "model8004"])
def test_warm_sweeps_equal_a_fresh_models_bitwise(fixture, request):
    # the prior's side kept on a model (its scans, and its lattice pass per window) gives
    # the bits a fresh model gives, whatever the model served before
    model = fresh(request.getfixturevalue(fixture))
    exact_sensitivity(model, 1e-4, n_angles=400)
    tabulated = tabulate_posterior(model).posterior.values
    assert tabulated.tobytes() == tabulate_posterior(fresh(model)).posterior.values.tobytes()
    first, served = set(model._passes), set()
    # the sweep's own window after a tabulation, one widened by a far point, then its own
    # again: built, then kept
    for eps, far in ((1e-2, []), (1e-2, [(30.0, 0.005)]), (1e-3, []), (1e-2, [])):
        _, _, points = contour_priors(model, eps, 400)
        points = np.vstack([points, *far])
        alone = fresh(model)
        warm, cold = _lattice_pass(model, points), _lattice_pass(alone, points)
        assert warm.tobytes() == cold.tobytes()
        served |= alone._passes.keys()
        assert model._passes.keys() == first | served  # one entry per window served
    assert len(served) == 2


@pytest.mark.parametrize("fixture", ["model2004", "model8004"])
def test_cold_sweep_evaluates_s_only_where_the_base_can_hold_mass(fixture, request, monkeypatch):
    # S's quadratic form costs about 1.6 ns per eigenvalue and node. The scan evaluates it where
    # its closed-form bound lets the base's posterior come within exp(-80) of its peak (21 to 23
    # of its 201 nodes here) and the lattice pass on its own nodes (97 here): 118 and 120 in all,
    # against 298 with every scan node
    sizes, quad = [], rw1._quad
    monkeypatch.setattr(rw1, "_quad", lambda model, taus: (sizes.append(taus.size), quad(model, taus))[1])
    exact_sensitivity(fresh(request.getfixturevalue(fixture)), 1e-4)
    assert sum(sizes) <= 130


def screened_and_full_scans(model):
    """The scan of ``u`` in [-50, 50] on a fresh copy of ``model``, and with ``quad`` on every node."""
    lo, hi = -rw1._SCAN_WIDEN, rw1._SCAN_WIDEN
    return rw1._scan(fresh(model), lo, hi), rw1._scan(fresh(model), lo, hi, np.full(hi - lo + 1, np.nan))


@pytest.mark.parametrize("source", ["model192", "model2004", "model8004", *range(0, 300, 10)])
def test_skipped_scan_nodes_hold_upper_bounds(source, contract_csvs, request):
    # a skipped node's log density and its intervals' W bound the full scan's, which every
    # window test above relies on
    if isinstance(source, str):
        model = request.getfixturevalue(source)
    else:
        n, kappa, prior, _ = list(contract_draws(2, 300))[source]
        model = ingest_timeseries(contract_csvs[n], kappa=kappa, prior=prior)
    try:
        (g, w, *_, quad), (g_full, w_full, *_) = screened_and_full_scans(model)
    except NumericalError:
        return
    skipped = np.isnan(quad)
    assert not skipped[np.argmax(g_full)] and np.all(g[skipped] <= -rw1._SCREEN_DROP)
    assert np.all(g[skipped] >= g_full[skipped] - 1e-12 * np.abs(g_full[skipped]))  # rounding
    touching = skipped[:-1] | skipped[1:]
    assert np.all(w[touching] >= w_full[touching] - 1e-9 * (1.0 + w_full[touching]))  # W cancels
    assert np.allclose(g[~skipped], g_full[~skipped], rtol=1e-12, atol=1e-9)


def test_a_direction_keeps_its_bits_beside_a_far_point(model192):
    # a far point (t/2 >= 0.5 on some node) sits in the first block of rows, beside
    # direction 0, or after every direction, in a later block; the set of priors, so the
    # window and the levels, is the same. Only the far row takes the far form, so each
    # direction that keeps its row keeps its bits, and the far point's h is the same too
    _, _, points = contour_priors(model192, 1e-3, 400)
    far = [30.0, 0.005]
    beside = np.vstack([points[:1], far, points[2:], points[1:2]])
    apart = np.vstack([points, far])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_beside, h_apart = _lattice_pass(fresh(model192), beside), _lattice_pass(fresh(model192), apart)
    kept = np.r_[0, 2:400]
    assert h_beside[kept].tobytes() == h_apart[kept].tobytes()
    assert h_beside[1] == h_apart[400]


def test_a_model_that_returns_to_a_window_builds_none_of_its_tables_again(model192, monkeypatch):
    # epsilon 1e-3 and 0.3 sweep on two windows: the model keeps the base's side of the pass
    # for each, so a revisit builds no level table, and each sweep has a fresh model's bits
    built, anchor_level = [], rw1._anchor_level
    monkeypatch.setattr(rw1, "_anchor_level", lambda model, *args: (built.append(model), anchor_level(model, *args))[1])
    model = fresh(model192)
    for eps in (1e-3, 0.3, 1e-3, 0.3):
        warm = exact_sensitivity(model, eps, n_angles=64).entries.h_post
        assert warm.tobytes() == exact_sensitivity(fresh(model), eps, n_angles=64).entries.h_post.tobytes()
    assert len(model._passes) == 2
    assert built.count(model) == sum(len(levels) for levels in model._passes.values())


def test_records_holding_arrays_compare_by_identity(model192):
    # two records built alike, each with arrays of its own: a field-wise == would ask numpy
    # for the truth value of an array, and a field-wise hash would hash one
    grid = compute_grid(PriorSpec(Family.GAMMA, model192.prior), 1e-3, n_angles=16)
    tables = [tabulate_posterior(model192) for _ in range(2)]
    pairs = [
        (fresh(model192), fresh(model192)),
        tables,
        [table.posterior for table in tables],
        (grid, dataclasses.replace(grid, points=grid.points.copy())),
        [exact_sensitivity(fresh(model192), 1e-3, n_angles=16) for _ in range(2)],
    ]
    for a, b in pairs:
        assert a == a and a != b and len({a, b, a}) == 2


@pytest.mark.parametrize("fixture", ["model192", "model2004"])
def test_a_screened_scan_serves_wider_sweeps_and_tabulation_as_a_fresh_model(fixture, request):
    # the cold sweep's scan skips most nodes; a sweep at 0.3 with a far point reaches some
    # of them at n = 192, which the scan then evaluates: at each step the model gives the
    # bits of a fresh one
    model = fresh(request.getfixturevalue(fixture))
    for eps, far in ((1e-4, []), (0.3, [(30.0, 0.005)])):
        _, _, points = contour_priors(model, eps, 400)
        points = np.vstack([points, *far])
        warm, cold = _lattice_pass(model, points), _lattice_pass(fresh(model), points)
        assert warm.tobytes() == cold.tobytes()
    skipped = np.isnan(model._scans[-rw1._SCAN_WIDEN, rw1._SCAN_WIDEN][-1]).sum()
    assert (skipped == 0) == (fixture == "model192")  # 180 of 201 skipped at n = 2004
    assert tabulate_posterior(model).posterior.values.tobytes() == \
        tabulate_posterior(fresh(model)).posterior.values.tobytes()


HISTORY_DRAWS = [draw for i, draw in enumerate(contract_draws(2, 300)) if i in (16, 28, 29)]


@pytest.mark.parametrize("history", ["wider_sweep", "wider_sweep_then_tabulation"])
@pytest.mark.parametrize("draw", HISTORY_DRAWS, ids=["draw16", "draw28", "draw29"])
def test_sweeps_after_a_history_equal_a_fresh_models_bitwise(draw, history, contract_csvs):
    # S at a node is computed for each request, never kept: a sweep after a wider sweep,
    # and after a tabulation too, asks S for the nodes a fresh model asks for; the model
    # keeps the scan of every scan range it served
    n, kappa, prior, eps = draw
    model = ingest_timeseries(contract_csvs[n], kappa=kappa, prior=prior)

    def sweep(e):
        return lambda m: exact_sensitivity(m, e, n_angles=64).entries.h_post

    ops = [sweep(min(0.5, 4.0 * eps)), sweep(eps)]
    if history == "wider_sweep_then_tabulation":
        ops.insert(1, tabulate_posterior)
    served = set()
    for op in ops:
        alone = fresh(model)
        warm, cold = op(model), op(alone)
        served |= alone._scans.keys()
    assert warm.tobytes() == cold.tobytes()
    assert model._scans.keys() == served


@pytest.mark.parametrize("rows,width", [(0, 5), (1, 201), (76, 201), (77, 201), (153, 201), (1000, 3), (5, 1 << 20)])
def test_blocks_cover_rows_exactly(rows, width):
    blocks = list(rw1._blocks(rows, width))
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
    assert all(b.stop - b.start <= max(1, rw1._BLOCK_CELLS // width) for b in blocks)


class TestTabulatePosterior:
    def test_normalized_log_scale_grid(self):
        inp = tabulate_posterior(small_model(n=24))
        assert inp.parametrization is Scale.LOG_PARAMETER
        assert inp.posterior.scale is Scale.LOG_PARAMETER
        assert len(inp.posterior) == 2001
        assert abs(trapezoid_mass(inp.posterior) - 1.0) <= 1e-10

    def test_boundaries_carry_no_mass(self):
        g = tabulate_posterior(small_model(n=24)).posterior
        peak = g.values.max()
        assert g.values[0] <= 1e-12 * peak
        assert g.values[-1] <= 1e-12 * peak

    def test_base_prior_matches_model(self):
        prior = ParamPoint(1.3, 0.01)
        inp = tabulate_posterior(small_model(prior=prior))
        assert inp.base_prior == PriorSpec(Family.GAMMA, prior)

    @pytest.mark.parametrize("prior", [DEFAULT_PRIOR, ParamPoint(1.3, 0.01), ParamPoint(40.0, 2.0)])
    def test_support_matches_reference_walk(self, prior):
        m = small_model(n=24, prior=prior)
        support = tabulate_posterior(m).posterior.support
        a, b = prior.as_tuple()
        assert (support[0], support[-1]) == tabulation_window(m.y, m.kappa, a, b)

    def test_resolution_is_converged(self):
        m = small_model(n=24)
        coarse = tabulate_posterior(RW1Model(y=m.y, kappa=m.kappa), n_points=2001).posterior
        fine = tabulate_posterior(RW1Model(y=m.y, kappa=m.kappa), n_points=4001).posterior
        assert hellinger_grid(coarse, fine) <= 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            tabulate_posterior(small_model(), n_points=4)


class TestExactSensitivity:
    def test_shapes_and_dampening(self, model192):
        res = exact_sensitivity(model192, 0.00354, n_angles=16)
        assert res.n_angles == 16
        assert res.cardinal is not None
        assert 0.0 < res.min <= res.worst_case < 1.0

    def test_entries_are_a_record_array(self, model192):
        res = exact_sensitivity(model192, 0.00354, n_angles=16)
        assert type(res.entries) is np.recarray and res.entries.dtype == ENTRY_DTYPE
        assert len(res.entries) == 16
        assert res.worst_case == res.entries.ratio.max() == res.entries[res.worst_index].ratio

    def test_agrees_with_reweighting_route(self, model192):
        exact = exact_sensitivity(model192, 0.00354, n_angles=8)
        base = PriorSpec(Family.GAMMA, model192.prior)
        grid = compute_grid(base, 0.00354, n_angles=8)
        reweighted = circular_sensitivity(tabulate_posterior(model192), grid)
        for e_exact, e_grid in zip(exact.entries, reweighted.entries):
            assert e_exact.phi == e_grid.phi
            assert abs(e_exact.ratio - e_grid.ratio) <= 1e-4


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
@pytest.mark.parametrize("fixture", ["model192", "model2004"])
def test_small_epsilon_agrees_with_reweighting(fixture, eps, request):
    # at small eps a difference of O(100) log normalizing constants is
    # rounding noise (errors near 1e-2 at n = 2004, ratios of exactly 0);
    # the tilted lattice sums must match reweighting angle by angle
    model = request.getfixturevalue(fixture)
    exact = exact_sensitivity(model, eps, n_angles=400)
    grid = compute_grid(PriorSpec(Family.GAMMA, model.prior), eps, n_angles=400)
    reweighted = circular_sensitivity(tabulate_posterior(model), grid)
    assert len(exact.entries) == len(reweighted.entries) == 400
    assert not exact.failed_angles and not grid.failed_angles
    ratios = np.array([e.ratio for e in exact.entries])
    assert np.all(ratios > 0.0)
    assert np.max(np.abs(ratios - [e.ratio for e in reweighted.entries])) <= 1e-4


def write_counts(path, counts):
    path.write_text("count\n" + "".join(f"{c}\n" for c in counts))
    return path


class TestIngestTimeseries:
    def test_fixture_roundtrip(self, model192, model96):
        assert model192.n == 192
        assert model96.n == 96
        assert abs(model192.y.mean()) <= 1e-12
        assert model192.kappa == pytest.approx(1.0 / model192.y.var(ddof=1), rel=1e-12)

    def test_seasonal_recovery_is_exact(self, tmp_path):
        # build square-root data as season + signal where the signal has
        # exactly zero mean within every calendar month; the pipeline
        # must then return the signal itself
        rng = np.random.default_rng(42)
        years = 4
        signal = rng.normal(0.0, 0.8, (years, 12))
        signal -= signal.mean(axis=0, keepdims=True)
        signal = signal.ravel()
        season = np.tile(np.linspace(20.0, 26.0, 12), years)
        counts = (season + signal) ** 2
        path = write_counts(tmp_path / "seasonal.csv", [repr(float(c)) for c in counts])
        m = ingest_timeseries(path)
        assert np.allclose(m.y, signal, atol=1e-10)
        assert m.kappa == pytest.approx(1.0 / signal.var(ddof=1), rel=1e-9)

    def test_window_subsets_raw_counts_first(self, tmp_path, counts_csv, model96):
        import csv

        with open(counts_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        tail = [r[0] for r in rows[1:]][-96:]
        path = write_counts(tmp_path / "tail.csv", tail)
        direct = ingest_timeseries(path)
        assert np.allclose(direct.y, model96.y, atol=1e-12)

    def test_kappa_and_prior_overrides(self, counts_csv):
        m = ingest_timeseries(counts_csv, kappa=3.5, prior=ParamPoint(2.0, 0.1))
        assert m.kappa == 3.5
        assert m.prior == ParamPoint(2.0, 0.1)

    def test_two_column_form(self, tmp_path):
        lines = ["date,count"]
        rng = np.random.default_rng(0)
        for i, c in enumerate(rng.integers(900, 1100, 24)):
            lines.append(f"2000-{i % 12 + 1:02d},{c}")
        path = tmp_path / "dated.csv"
        path.write_text("\n".join(lines) + "\n")
        assert ingest_timeseries(path).n == 24

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_timeseries(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "content",
        [b"count\n10\n\xff\n", b"count\n" + b"1" * 200_000 + b"\n"],
        ids=["undecodable", "oversized_field"],
    )
    def test_unreadable_text_rejected(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(IngestionError, match="cannot read"):
            ingest_timeseries(path)

    def test_error_names_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("count\n\n\n10\n12\nabc\n")
        with pytest.raises(IngestionError, match=r"gaps\.csv:6: non-numeric count"):
            ingest_timeseries(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("".join(f"{c}\n" for c in range(100, 124)))
        with pytest.raises(IngestionError, match="header"):
            ingest_timeseries(path)

    def test_non_numeric_row(self, tmp_path):
        path = write_counts(tmp_path / "bad.csv", [100] * 23 + ["oops"])
        with pytest.raises(IngestionError, match="non-numeric"):
            ingest_timeseries(path)

    def test_nonpositive_counts(self, tmp_path):
        path = write_counts(tmp_path / "zero.csv", [100] * 23 + [0])
        with pytest.raises(IngestionError, match="positive"):
            ingest_timeseries(path)

    def test_partial_year(self, tmp_path):
        path = write_counts(tmp_path / "partial.csv", [100] * 30)
        with pytest.raises(IngestionError, match="whole years"):
            ingest_timeseries(path)

    def test_too_short(self, tmp_path):
        path = write_counts(tmp_path / "short.csv", [100] * 12)
        with pytest.raises(IngestionError, match="two years"):
            ingest_timeseries(path)

    def test_constant_series(self, tmp_path):
        path = write_counts(tmp_path / "flat.csv", [100] * 24)
        with pytest.raises(IngestionError, match="constant"):
            ingest_timeseries(path)

    def test_unknown_window(self, counts_csv):
        with pytest.raises(IngestionError, match="window"):
            ingest_timeseries(counts_csv, window="last12")

    def test_window_needs_enough_data(self, tmp_path):
        path = write_counts(tmp_path / "short60.csv", list(range(100, 160)))
        with pytest.raises(IngestionError, match="last-96"):
            ingest_timeseries(path, window="last96")
