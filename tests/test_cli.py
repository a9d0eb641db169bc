import csv
import json
import math

import numpy as np
import pytest

from oracles import hellinger_difference_form
from priorscan import (
    DEFAULT_PRIOR,
    RESIDUAL_RTOL,
    Family,
    ParamPoint,
    PriorSpec,
    Scale,
    calibrate,
    inverse_calibrate,
    tabulate_prior,
)
from priorscan.cli import DEFAULT_EPSILON, EXIT_OK, _resolve_config, main
from priorscan.grids import write_density_csv


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
        reweight = json.loads((tmp_path / "reweight" / "rw1.json").read_text())
        for a, b in zip(exact["entries"], reweight["entries"]):
            assert abs(a["ratio"] - b["ratio"]) <= 1e-4

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

    def test_missing_data_exits_2(self, tmp_path):
        assert main(["rw1", "--data", str(tmp_path / "none.csv")]) == 2

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
