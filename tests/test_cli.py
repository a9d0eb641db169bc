import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hellinger_difference_form, write_density_csv
from priorscan import (
    DEFAULT_PRIOR,
    RESIDUAL_RTOL,
    DomainError,
    Family,
    ParamPoint,
    PriorSpec,
    PosteriorInput,
    Scale,
    calibrate,
    circular_sensitivity,
    compute_grid,
    export_plot_data,
    inverse_calibrate,
    normalize_grid,
    read_density_csv,
    tabulate_prior,
)
from priorscan.cli import DEFAULT_EPSILON, EXIT_OK, _resolve_config, _write_csv, main
from priorscan.contour import GRID_DTYPE
from priorscan.sensitivity import POLAR_DTYPE, ROLLED_DTYPE


@pytest.fixture()
def posterior_csv(tmp_path):
    """Flat-likelihood gamma posterior tabulated on the log scale."""
    grid = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.LOG_PARAMETER)
    path = tmp_path / "posterior.csv"
    write_density_csv(path, grid)
    return path


@pytest.fixture()
def small_counts_csv(tmp_path):
    rng = np.random.default_rng(99)
    drift = np.cumsum(rng.normal(0.0, 0.4, 48))
    season = np.tile(np.linspace(30.0, 36.0, 12), 4)
    counts = np.maximum(np.round((season + drift + rng.normal(0.0, 1.0, 48)) ** 2), 1)
    path = tmp_path / "counts.csv"
    path.write_text("count\n" + "".join(f"{int(c)}\n" for c in counts))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dict_writer_bytes(fieldnames, rows):
    """Reference bytes: ``csv.DictWriter`` over one dict per row, floats as their repr."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue().encode()


def table_rows(table):
    return [dict(zip(table.dtype.names, row)) for row in table.tolist()]


def contour_rows(points):
    return [
        {"phi": phi, "gamma1": g1, "gamma2": g2, "hellinger_residual": res}
        for phi, (g1, g2), res in points.tolist()
    ]


def contour_columns(points):
    return {
        "phi": points.phi,
        "gamma1": points.point.gamma1,
        "gamma2": points.point.gamma2,
        "hellinger_residual": points.residual,
    }


# signed zeros, the least normal float and subnormals, infinities, NaN, repeats
SPECIAL = [
    -0.0, 0.0, 1e-300, 2.2250738585072014e-308, 5e-324, -2.5e-320, math.inf,
    -math.inf, math.nan, 0.1, 1.0 / 3.0, -1e300, 0.1, -0.0, math.nan, 7.0,
]
SERIES = ["sensitivity", *(f"ref_{0.1 * k:.1f}" for k in range(1, 11))]


class TestColumnWriter:
    @staticmethod
    def written(tmp_path, columns):
        path = tmp_path / "table.csv"
        _write_csv(path, columns)
        return path.read_bytes()

    def test_contour_table(self, tmp_path):
        points = np.zeros(len(SPECIAL), GRID_DTYPE).view(np.recarray)
        points.phi, points.residual = SPECIAL, SPECIAL[::-1]
        points.point.gamma1, points.point.gamma2 = np.roll(SPECIAL, 3), np.roll(SPECIAL, -5)
        expected = dict_writer_bytes(list(contour_columns(points)), contour_rows(points))
        assert self.written(tmp_path, contour_columns(points)) == expected
        assert b"\r\n-0.0," in expected and b"\r\n0.0," in expected and b"5e-324" in expected

    def test_polar_table(self, tmp_path):
        n = len(SPECIAL)
        polar = np.zeros(n * len(SERIES), POLAR_DTYPE).view(np.recarray)
        polar.series = np.repeat(SERIES, n)
        polar.phi = np.tile(SPECIAL, len(SERIES))
        polar.ratio = np.repeat([0.5, *(0.1 * k for k in range(1, 11))], n)
        polar.x, polar.y = np.resize(SPECIAL, polar.size)[::-1], np.resize(SPECIAL[3:], polar.size)
        columns = {name: polar[name] for name in POLAR_DTYPE.names}
        assert self.written(tmp_path, columns) == dict_writer_bytes(
            list(POLAR_DTYPE.names), table_rows(polar)
        )

    def test_rolled_table(self, tmp_path):
        rolled = np.zeros(len(SPECIAL), ROLLED_DTYPE).view(np.recarray)
        rolled.phi, rolled.ratio, rolled.ref_half, rolled.ref_one = SPECIAL, SPECIAL[::-1], 0.5, 1.0
        rolled.is_worst = [0, 1, 0, 0, 7, -3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        columns = {name: rolled[name] for name in ROLLED_DTYPE.names}
        assert self.written(tmp_path, columns) == dict_writer_bytes(
            list(ROLLED_DTYPE.names), table_rows(rolled)
        )

    def test_empty_table_is_its_header(self, tmp_path):
        points = np.zeros(0, GRID_DTYPE).view(np.recarray)
        assert self.written(tmp_path, contour_columns(points)) == (
            b"phi,gamma1,gamma2,hellinger_residual\r\n"
        )

    def test_cli_tables_match_the_reference(self, tmp_path, posterior_csv):
        argv = ["--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "24", "--outdir"]
        assert main(["grid", *argv, str(tmp_path)]) == EXIT_OK
        assert main(["sensitivity", *argv, str(tmp_path), "--posterior", str(posterior_csv),
                     "--log-scale"]) == EXIT_OK
        base = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))
        grid = compute_grid(base, DEFAULT_EPSILON, n_angles=24)
        posterior = normalize_grid(read_density_csv(posterior_csv, Scale.LOG_PARAMETER))
        result = circular_sensitivity(PosteriorInput(posterior, base, Scale.LOG_PARAMETER), grid)
        polar, rolled = export_plot_data(result)
        expected = {
            "grid_contour.csv": dict_writer_bytes(
                ["phi", "gamma1", "gamma2", "hellinger_residual"], contour_rows(grid.points)
            ),
            "sensitivity_polar.csv": dict_writer_bytes(list(POLAR_DTYPE.names), table_rows(polar)),
            "sensitivity_rolled.csv": dict_writer_bytes(
                list(ROLLED_DTYPE.names), table_rows(rolled)
            ),
        }
        for name, content in expected.items():
            assert (tmp_path / name).read_bytes() == content


class TestCalibrateCommand:
    def test_distance_to_shift(self, capsys):
        assert main(["calibrate", "--h", "0.00354"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("mu = ")
        assert float(out.split("=")[1]) == calibrate(0.00354)

    def test_shift_to_distance(self, capsys):
        assert main(["calibrate", "--mu", "0.01"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) == inverse_calibrate(0.01)

    def test_needs_exactly_one_argument(self, capsys):
        assert main(["calibrate"]) == 2
        assert main(["calibrate", "--h", "0.1", "--mu", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_out_of_domain_distance(self, capsys):
        assert main(["calibrate", "--h", "1.5"]) == 2


class TestGridCommand:
    def test_emits_contour_and_moduli(self, tmp_path, capsys):
        code = main(
            [
                "grid",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--n-angles",
                "16",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "grid_contour.csv")
        assert len(rows) == 16
        assert set(rows[0]) == {"phi", "gamma1", "gamma2", "hellinger_residual"}
        assert all(float(r["hellinger_residual"]) <= DEFAULT_EPSILON * 1e-4 for r in rows)
        moduli = json.loads((tmp_path / "grid_moduli.json").read_text())
        assert moduli["epsilon"] == DEFAULT_EPSILON
        assert moduli["n_angles"] == 16
        assert moduli["base"] == {"family": "gamma", "gamma1": 1.0, "gamma2": 0.34}
        assert set(moduli["cardinal_moduli"]) == {"plus_x", "plus_y", "minus_x", "minus_y"}
        assert moduli["failed_angles"] == []

    def test_unreachable_contour_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "grid",
                "--family",
                "normal",
                "--gamma0",
                "0,1",
                "--epsilon",
                "1e-12",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_no_temp_files_left_behind(self, tmp_path):
        main(
            [
                "grid",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--n-angles",
                "16",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_take_the_mode_of_the_umask(self, tmp_path, umask, mode):
        argv = ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16",
                "--outdir", str(tmp_path)]
        old = os.umask(umask)
        try:
            assert main(argv) == EXIT_OK
        finally:
            os.umask(old)
        written = sorted(tmp_path.iterdir())
        assert [path.name for path in written] == ["grid_contour.csv", "grid_moduli.json"]
        assert [path.stat().st_mode & 0o777 for path in written] == [mode, mode]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        argv = ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16",
                "--outdir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: replace refused"]
        assert list(tmp_path.iterdir()) == []

    def test_too_many_angles_exits_2(self, tmp_path, capsys):
        argv = ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", str(10**15),
                "--outdir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: n_angles must lie in [8, 65536], got {10**15}"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gamma0, message", [("1", "expected 'a,b', got '1'"),
                                                 ("a,b", "could not convert string to float: 'a'")])
    def test_malformed_point_exits_2(self, tmp_path, capsys, gamma0, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["grid", "--family", "gamma", "--gamma0", gamma0, "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --gamma0: {message}")
        assert not (tmp_path / "out").exists()

    def test_failed_directions_are_reported_with_allow_partial(self, tmp_path, monkeypatch, capsys):
        import priorscan.contour as contour_mod

        original = contour_mod._solve_radii

        def flaky(base, epsilon, phi, cx, cy):
            gamma1, gamma2, residual = original(base, epsilon, phi, cx, cy)
            return gamma1, gamma2, np.where(phi > 1.5, np.nan, residual)

        monkeypatch.setattr(contour_mod, "_solve_radii", flaky)
        argv = ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16",
                "--allow-partial", "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        failed = json.loads((tmp_path / "grid_moduli.json").read_text())["failed_angles"]
        assert len(failed) == 4 and all(phi > 1.5 for phi in failed)
        assert capsys.readouterr().err.splitlines() == [
            "warning: 4 contour direction(s) failed and were skipped"
        ]

    @pytest.mark.parametrize(
        "family,gamma0",
        [
            ("gamma", "1,1e-300"),
            ("normal", "1,1e-300"),
            ("gamma", "1,1e-160"),
            ("gamma", "1,1e160"),
        ],
    )
    def test_extreme_rate_or_precision(self, tmp_path, family, gamma0):
        # both families are scale-invariant in gamma2: the contour exists at any scale
        code = main(["grid", "--family", family, f"--gamma0={gamma0}", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "grid_contour.csv")
        assert len(rows) == 400
        assert max(float(r["hellinger_residual"]) for r in rows) <= RESIDUAL_RTOL * DEFAULT_EPSILON

    @pytest.mark.parametrize("gamma0", ["1,1e150", "1e300,1"])
    def test_mean_step_below_float_resolution_exits_3(self, tmp_path, capsys, gamma0):
        # the contour exists, but no float mean other than the base's lies within it
        code = main(["grid", "--family", "normal", f"--gamma0={gamma0}", "--outdir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("family", ["gamma", "normal"])
    @pytest.mark.parametrize("gamma0", ["1,1e-310", "1,5e-324", "1,1e308", "1,1.7e308"])
    def test_rate_or_precision_past_float_range_exits_3_quietly(
        self, tmp_path, capsys, family, gamma0
    ):
        # a subnormal or near-overflow gamma2 meets inf and NaN in the bracket
        # arithmetic: those directions are unreachable, and numpy must not warn
        code = main(["grid", "--family", family, f"--gamma0={gamma0}", "--outdir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_negative_point_spaced_or_joined(self, tmp_path):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        for outdir, point in ((spaced, ["--gamma0", "-1,2"]), (joined, ["--gamma0=-1,2"])):
            argv = ["grid", "--family", "normal", *point, "--n-angles", "16"]
            assert main([*argv, "--outdir", str(outdir)]) == EXIT_OK
        for name in ("grid_contour.csv", "grid_moduli.json"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()
        moduli = json.loads((spaced / "grid_moduli.json").read_text())
        assert (moduli["base"]["gamma1"], moduli["base"]["gamma2"]) == (-1.0, 2.0)


class TestSensitivityCommand:
    def run_once(self, tmp_path, posterior_csv, outdir_name="out"):
        outdir = tmp_path / outdir_name
        code = main(
            [
                "sensitivity",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--posterior",
                str(posterior_csv),
                "--log-scale",
                "--n-angles",
                "16",
                "--outdir",
                str(outdir),
            ]
        )
        return code, outdir

    def test_happy_path(self, tmp_path, posterior_csv, capsys):
        code, outdir = self.run_once(tmp_path, posterior_csv)
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "Circular sensitivity" in captured.out
        report = json.loads((outdir / "sensitivity.json").read_text())
        assert report["n_angles"] == 16
        # flat likelihood: the posterior tracks the prior one for one
        assert abs(report["worst_case"] - 1.0) <= 1e-3
        assert len(report["entries"]) == 16
        polar = read_rows(outdir / "sensitivity_polar.csv")
        assert len(polar) == 16 * 11
        rolled = read_rows(outdir / "sensitivity_rolled.csv")
        assert len(rolled) == 16
        assert sum(int(r["is_worst"]) for r in rolled) == 1

    def test_byte_identical_reruns(self, tmp_path, posterior_csv):
        _, out1 = self.run_once(tmp_path, posterior_csv, "first")
        _, out2 = self.run_once(tmp_path, posterior_csv, "second")
        for name in ("sensitivity.json", "sensitivity_polar.csv", "sensitivity_rolled.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_posterior_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "sensitivity",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--posterior",
                str(tmp_path / "absent.csv"),
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_unstable_reweighting_exits_4(self, tmp_path, capsys):
        # posterior mass sits where the sharply peaked base prior underflows
        support = np.linspace(20.0, 40.0, 64)
        values = np.full(64, 0.05)
        path = tmp_path / "far.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "density"])
            for x, v in zip(support, values):
                writer.writerow([repr(float(x)), repr(float(v))])
        code = main(
            [
                "sensitivity",
                "--family",
                "gamma",
                "--gamma0",
                "100,100",
                "--posterior",
                str(path),
                "--n-angles",
                "8",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_near_flat_normal_prior(self, tmp_path):
        # precision 1e-300: the Fisher seed and the closed form must not square it
        path = tmp_path / "normal.csv"
        grid = tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(0.3, 4.0)), Scale.NATURAL, 801)
        write_density_csv(path, grid)
        argv = ["sensitivity", "--family", "normal", "--gamma0", "0.5,1e-300", "--epsilon", "0.5"]
        assert main([*argv, "--posterior", str(path), "--outdir", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "sensitivity.json").read_text())
        assert len(report["entries"]) == 400 and report["failed_angles"] == []
        # the oracle sees theta scaled by sqrt(lam0), which maps the base to precision 1
        scale = math.sqrt(1e-300)
        for e in report["entries"]:
            point = (e["gamma1"] * scale, e["gamma2"] / 1e-300)
            h = hellinger_difference_form("normal", (0.5 * scale, 1.0), point)
            assert abs(h - 0.5) <= RESIDUAL_RTOL * 0.5
            assert 0.0 <= e["ratio"] < 1e-6


class TestRw1Command:
    def test_exact_engine(self, tmp_path, small_counts_csv, capsys):
        code = main(
            [
                "rw1",
                "--data",
                str(small_counts_csv),
                "--n-angles",
                "8",
                "--outdir",
                str(tmp_path / "exact"),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "ingested n = 48 months" in captured.err
        assert "Circular sensitivity" in captured.out
        report = json.loads((tmp_path / "exact" / "rw1.json").read_text())
        assert report["n_angles"] == 8
        assert 0.0 < report["worst_case"] < 1.0

    def test_engines_agree(self, tmp_path, small_counts_csv, capsys):
        for engine in ("exact", "reweight"):
            code = main(
                [
                    "rw1",
                    "--data",
                    str(small_counts_csv),
                    "--engine",
                    engine,
                    "--n-angles",
                    "8",
                    "--outdir",
                    str(tmp_path / engine),
                ]
            )
            assert code == EXIT_OK
        exact = json.loads((tmp_path / "exact" / "rw1.json").read_text())
        reweight = json.loads((tmp_path / "reweight" / "rw1_reweight.json").read_text())
        for a, b in zip(exact["entries"], reweight["entries"]):
            assert abs(a["ratio"] - b["ratio"]) <= 1e-4

    def test_engines_share_an_outdir(self, tmp_path, small_counts_csv, capsys):
        # each engine keeps its own reports when both write into one directory
        for engine in ("exact", "reweight"):
            argv = ["rw1", "--data", str(small_counts_csv), "--engine", engine,
                    "--n-angles", "8", "--outdir", str(tmp_path / "out")]
            assert main(argv) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "rw1.json", "rw1_polar.csv", "rw1_reweight.json", "rw1_reweight_polar.csv",
            "rw1_reweight_rolled.csv", "rw1_rolled.csv",
        ]
        exact = json.loads((tmp_path / "out" / "rw1.json").read_text())
        reweight = json.loads((tmp_path / "out" / "rw1_reweight.json").read_text())
        assert exact["entries"] != reweight["entries"]

    def test_prior_and_kappa_flags(self, tmp_path, small_counts_csv, capsys):
        code = main(
            [
                "rw1",
                "--data",
                str(small_counts_csv),
                "--kappa",
                "2.0",
                "--prior",
                "1.5,0.01",
                "--n-angles",
                "8",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        assert "kappa = 2" in capsys.readouterr().err
        report = json.loads((tmp_path / "rw1.json").read_text())
        assert report["base"] == {"family": "gamma", "gamma1": 1.5, "gamma2": 0.01}

    @pytest.mark.parametrize("engine", ["exact", "reweight"])
    @pytest.mark.parametrize("kappa", ["1e160", "1e200", "1e300"])
    def test_kappa_whose_square_overflows_exits_2(self, tmp_path, small_counts_csv, capsys,
                                                  engine, kappa):
        argv = ["rw1", "--data", str(small_counts_csv), "--kappa", kappa, "--engine", engine,
                "--n-angles", "8", "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: kappa must have a finite square (up to about 1.34e154), "
                         f"got {float(kappa)!r}"]
        assert not (tmp_path / "out").exists()

    def test_missing_data_exits_2(self, tmp_path):
        assert main(["rw1", "--data", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize("engine", ["exact", "reweight"])
    def test_prior_rate_past_float_range_exits_4_quietly(self, tmp_path, small_counts_csv, capsys,
                                                         engine):
        # beta exp(log tau) overflows from log tau = 19.5 up: the window scan names that node
        argv = ["rw1", "--data", str(small_counts_csv), "--prior", "1,1e300", "--engine", engine,
                "--n-angles", "8", "--outdir", str(tmp_path / "out")]
        assert main(argv) == 4
        lines = capsys.readouterr().err.splitlines()
        assert not [line for line in lines if line.startswith("warning:")]
        assert [line for line in lines if line.startswith("error:")] == [
            "error: non-finite posterior integrand at log tau = 19.5"
        ]
        assert not (tmp_path / "out").exists()

    def test_default_prior_is_the_model_default(self):
        assert _resolve_config(["rw1", "--data", "counts.csv"]).prior == DEFAULT_PRIOR


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, tmp_path, posterior_csv, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# sensitivity run settings\n"
            "family = gamma\n"
            "gamma0 = 1,0.34\n"
            f"posterior = {posterior_csv}\n"
            "log-scale = true\n"
            "n-angles = 16\n"
            f"outdir = {tmp_path / 'cfgout'}\n"
        )
        assert main(["--config", str(cfg), "sensitivity"]) == EXIT_OK
        report = json.loads((tmp_path / "cfgout" / "sensitivity.json").read_text())
        assert report["n_angles"] == 16

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cal.cfg"
        cfg.write_text("epsilon = 0.9\nn-angles = 9999\n")
        outdir = tmp_path / "flagwins"
        code = main(
            [
                "--config",
                str(cfg),
                "grid",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--epsilon",
                "0.00354",
                "--n-angles",
                "16",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == EXIT_OK
        moduli = json.loads((outdir / "grid_moduli.json").read_text())
        assert moduli["epsilon"] == 0.00354
        assert moduli["n_angles"] == 16

    def test_missing_setting_after_merge_exits_2(self, capsys):
        assert main(["grid", "--family", "gamma"]) == 2
        assert "--gamma0" in capsys.readouterr().err

    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n_angles = many\n")
        argv = ["--config", str(cfg), "grid", "--family", "gamma", "--gamma0", "1,0.34",
                "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config key 'n_angles': ")
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert main(["--config", str(cfg), "calibrate", "--h", "0.1"]) == 2

    def assert_config_rejected(self, tmp_path, capsys, text, args, match):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        outdir = tmp_path / "out"
        assert main(["--config", str(cfg), *args, "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and match in err[0]
        assert not outdir.exists()

    def test_config_engine_checked_against_choices(self, tmp_path, small_counts_csv, capsys):
        self.assert_config_rejected(
            tmp_path, capsys, "engine = exakt\n", ["rw1", "--data", str(small_counts_csv)],
            "invalid choice 'exakt'",
        )

    def test_config_family_checked_against_choices(self, tmp_path, capsys):
        self.assert_config_rejected(
            tmp_path, capsys, "family = gama\ngamma0 = 1,0.34\n", ["grid"],
            "invalid choice 'gama'",
        )

    def test_config_window_checked_against_choices(self, tmp_path, small_counts_csv, capsys):
        self.assert_config_rejected(
            tmp_path, capsys, "window = last12\n", ["rw1", "--data", str(small_counts_csv)],
            "invalid choice 'last12'",
        )

    def test_config_switch_value_checked(self, tmp_path, posterior_csv, capsys):
        self.assert_config_rejected(
            tmp_path, capsys, "log-scale = ture\n",
            ["sensitivity", "--family", "gamma", "--gamma0", "1,0.34",
             "--posterior", str(posterior_csv)],
            "invalid choice 'ture'",
        )

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        self.assert_config_rejected(
            tmp_path, capsys, "epsilom = 0.01\n",
            ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16"],
            "unknown config key 'epsilom'",
        )

    def test_outdir_env_fallback(self, tmp_path, monkeypatch, capsys):
        envdir = tmp_path / "fromenv"
        monkeypatch.setenv("PRIORSCAN_OUTDIR", str(envdir))
        code = main(["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16"])
        assert code == EXIT_OK
        assert (envdir / "grid_moduli.json").exists()

    def test_outdir_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PRIORSCAN_OUTDIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        code = main(
            [
                "grid",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--n-angles",
                "16",
                "--outdir",
                str(chosen),
            ]
        )
        assert code == EXIT_OK
        assert (chosen / "grid_moduli.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_outdir_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PRIORSCAN_OUTDIR", str(tmp_path / "ignored"))
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'fromcfg'}\n")
        code = main(
            ["--config", str(cfg), "grid", "--family", "gamma", "--gamma0", "1,0.34",
             "--n-angles", "16"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "fromcfg" / "grid_moduli.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_settings_match_flags(self, tmp_path, small_counts_csv, capsys):
        cfg = tmp_path / "rw1.cfg"
        cfg.write_text("engine = reweight\nprior = 2,0.01\nkappa = 3\nout-prefix = cfg\n")
        common = ["rw1", "--data", str(small_counts_csv), "--n-angles", "8"]
        flags = ["--engine", "reweight", "--prior", "2,0.01", "--kappa", "3", "--out-prefix", "cfg"]
        assert main(["--config", str(cfg), *common, "--outdir", str(tmp_path / "a")]) == EXIT_OK
        assert main([*common, *flags, "--outdir", str(tmp_path / "b")]) == EXIT_OK
        for name in ("cfg.json", "cfg_polar.csv", "cfg_rolled.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "command, defaults", [("grid", ["0.00354", "400"]), ("rw1", ["0.00354", "400", "exact"])]
    )
    def test_help_shows_builtin_defaults(self, capsys, command, defaults):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for value in defaults:
            assert f"(default {value})" in text

    def test_out_prefix(self, tmp_path, capsys):
        code = main(
            [
                "grid",
                "--family",
                "gamma",
                "--gamma0",
                "1,0.34",
                "--n-angles",
                "16",
                "--outdir",
                str(tmp_path),
                "--out-prefix",
                "baseline",
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "baseline_contour.csv").exists()
        assert (tmp_path / "baseline_moduli.json").exists()


# "INPUT" stands for the path of the file holding the test's bytes
SENSITIVITY_ARGS = ["sensitivity", "--family", "gamma", "--gamma0", "1,0.34", "--posterior", "INPUT"]
RW1_ARGS = ["rw1", "--data", "INPUT"]
CONFIG_ARGS = ["--config", "INPUT", "grid", "--family", "gamma", "--gamma0", "1,0.34"]


@pytest.mark.parametrize(
    "args, content",
    [
        (SENSITIVITY_ARGS, b"x,density\n0.0,0.5\n\xff,0.5\n"),
        (RW1_ARGS, b"count\n10\n\xff\n"),
        (CONFIG_ARGS, b"n-angles = 16\n\xff = 1\n"),
        (SENSITIVITY_ARGS, b"x,density\n" + b"1" * 200_000 + b",0.5\n"),
        (RW1_ARGS, b"count\n" + b"1" * 200_000 + b"\n"),
    ],
    ids=["posterior_undecodable", "data_undecodable", "config_undecodable",
         "posterior_oversized_field", "data_oversized_field"],
)
def test_unreadable_input_exits_2(tmp_path, capsys, args, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    outdir = tmp_path / "out"
    argv = [str(path) if arg == "INPUT" else arg for arg in args]
    assert main([*argv, "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not outdir.exists()


class TestWarningsRouting:
    def test_library_warnings_land_on_stderr(self, capsys):
        # a distance within one ulp of 1 saturates the calibration; the
        # command still succeeds but must surface the warning
        code = main(["calibrate", "--h", "0.9999999999999999"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.startswith("mu = ")
        assert math.isfinite(float(captured.out.split("=")[1]))
        assert "warning:" in captured.err
        assert "saturated" in captured.err


# --- the input-space contract: every argv ends in an answer or a documented exit

def mostly(good, bad):
    """Draws from ``good`` three times in four, so that many runs get to succeed."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: good if ok else bad)


MAGNITUDES = mostly(
    st.floats(min_value=0.05, max_value=20.0) | st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e308, math.inf, math.nan]),
)
POSITIVE = mostly(MAGNITUDES, MAGNITUDES.map(lambda m: -m))
SIGNED = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), MAGNITUDES)
EPSILONS = mostly(
    st.floats(min_value=1e-9, max_value=0.5),
    st.sampled_from([1e-12, 0.7, 0.0, -0.1, math.nan]),
)
CONFIG_LINES = mostly(
    st.sampled_from(["epsilon = 0.01", "n-angles = 12", "allow-partial = on", "# comment"]),
    st.sampled_from(["n_angles = x", "family = beta", "log-scale = maybe", "bogus = 1", "a b"]),
)


@st.composite
def posterior_bodies(draw):
    n = draw(st.integers(0, 6))
    xs = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    ds = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.0, -1.0, math.nan]), min_size=n, max_size=n))
    return "x,density\n" + "".join(f"{x!r},{d!r}\n" for x, d in zip(xs, ds))


@st.composite
def count_bodies(draw):
    months = draw(mostly(st.sampled_from([24, 36]), st.sampled_from([0, 11])))
    level = draw(st.sampled_from([5, 30, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    counts = np.maximum(np.round(level * (1.0 + 0.2 * rng.standard_normal(months))), 1).astype(int)
    if months and draw(mostly(st.just(False), st.just(True))):
        counts[0] = draw(st.sampled_from([0, -4]))
    return "count\n" + "".join(f"{c}\n" for c in counts)


@st.composite
def invocations(draw):
    """An argv for ``main`` and the input files it names, by file name.

    A posterior body of None stands for a tabulation of the base prior.
    """
    command = draw(st.sampled_from(["grid", "sensitivity", "rw1"]))
    argv, files = [], {}
    if draw(mostly(st.just(False), st.just(True))):
        files["run.cfg"] = "\n".join(draw(st.lists(CONFIG_LINES, max_size=2))) + "\n"
        argv += ["--config", "run.cfg"]
    argv += [command, "--epsilon", repr(draw(EPSILONS))]
    argv += ["--n-angles", str(draw(mostly(st.sampled_from([8, 12, 16]), st.just(4))))]
    argv += ["--allow-partial"] * draw(st.booleans())
    if command == "rw1":
        files["counts.csv"] = draw(count_bodies())
        argv += ["--data", "counts.csv", "--engine", draw(st.sampled_from(["exact", "reweight"]))]
        if draw(st.booleans()):
            argv.append(f"--prior={draw(POSITIVE)!r},{draw(POSITIVE)!r}")
        if draw(st.booleans()):
            argv.append(f"--kappa={draw(POSITIVE)!r}")
        if draw(st.booleans()):
            argv += ["--window", draw(st.sampled_from(["full", "last96", "last12"]))]
    else:
        family = draw(st.sampled_from(["gamma", "normal"]))
        g1 = draw(POSITIVE if family == "gamma" else SIGNED)
        argv += ["--family", family, f"--gamma0={g1!r},{draw(POSITIVE)!r}"]
    if command == "sensitivity":
        files["post.csv"] = draw(mostly(st.none(), posterior_bodies()))
        argv += ["--posterior", "post.csv"] + ["--log-scale"] * draw(st.booleans())
    return argv, files


def write_inputs(workdir, argv, files):
    """Write the input files into ``workdir``; return argv with their paths."""
    for name, body in files.items():
        if body is None:  # the base prior, when it can be tabulated
            base = next(a for a in argv if a.startswith("--gamma0="))[len("--gamma0="):]
            family = Family(argv[argv.index("--family") + 1])
            scale = Scale.LOG_PARAMETER if "--log-scale" in argv else Scale.NATURAL
            try:
                spec = PriorSpec(family, ParamPoint(*map(float, base.split(","))))
                with np.errstate(all="ignore"):
                    write_density_csv(workdir / name, tabulate_prior(spec, scale, 201))
                continue
            except (DomainError, OverflowError, ValueError):
                body = "x,density\n"
        (workdir / name).write_text(body)
    return [str(workdir / a) if a in files else a for a in argv]


def check_outputs(outdir):
    """Every CSV parses and has the row count its JSON report implies."""
    reports = {p.name: json.loads(p.read_text()) for p in outdir.glob("*.json")}
    tables = {p.name: list(csv.reader(p.open(newline=""))) for p in outdir.glob("*.csv")}
    assert reports and tables
    for name, report in reports.items():
        solved = report["n_angles"] - len(report["failed_angles"])
        if name.endswith("_moduli.json"):
            rows = tables[name.replace("_moduli.json", "_contour.csv")]
            assert len(rows) == 1 + solved
            residuals = [float(row[3]) for row in rows[1:]]
            assert all(r <= RESIDUAL_RTOL * report["epsilon"] for r in residuals)
        else:
            stem = name[: -len(".json")]
            assert len(report["entries"]) == solved
            assert len(tables[f"{stem}_polar.csv"]) == 1 + 11 * solved
            assert len(tables[f"{stem}_rolled.csv"]) == 1 + solved


@settings(max_examples=120, derandomize=True, deadline=None)
@given(invocations())
@example((["rw1", "--data", "counts.csv", "--window", "last12"], {"counts.csv": "count\n" + "30\n" * 24}))
def test_every_invocation_answers_or_exits_documented(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = write_inputs(workdir, argv, files)
        out, err = io.StringIO(), io.StringIO()
        refused_by_argparse = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--outdir", str(workdir / "out")])
            except SystemExit as exc:  # usage, then "priorscan rw1: error: ..."
                assert exc.code == 2 and "last12" in argv, argv
                code, refused_by_argparse = exc.code, True
        lines = err.getvalue().splitlines()
        if refused_by_argparse:
            lines = [line.removeprefix("priorscan rw1: ") for line in lines]
        assert code in (0, 2, 3, 4), (argv, lines)
        assert not any("Traceback" in line for line in lines)
        if code:
            assert sum(line.startswith("error: ") for line in lines) == 1, (argv, lines)
            assert lines[-1].startswith("error: ")
        else:
            assert not any(line.startswith("error: ") for line in lines)
            check_outputs(workdir / "out")
