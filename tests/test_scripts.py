import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rw1_experiment_runs(tmp_path):
    # the experiment script is the one consumer of the public API outside the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rw1_experiment.py"),
         "--angles", "64", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    for name in ("epsilon_sweep.csv", "polar_sensitivity.csv", "rolled_sensitivity.csv",
                 "experiment_report.json"):
        assert (tmp_path / name).is_file()
    report = json.loads((tmp_path / "experiment_report.json").read_text())
    assert report["exact_vs_reweighting_max_gap"] <= 1e-4


def test_rw1_experiment_traces_each_contour_once(tmp_path, monkeypatch):
    # the contour depends on the prior, epsilon and n_angles only: the sweep, both
    # series at the headline radius and the reweighting cross-check share one trace each
    import priorscan.contour as contour_mod
    import rw1_experiment

    traced = []
    original = contour_mod._preexplore

    def spy(base, epsilon):
        traced.append(epsilon)
        return original(base, epsilon)

    monkeypatch.setattr(contour_mod, "_preexplore", spy)
    monkeypatch.setattr(sys, "argv", ["rw1_experiment.py", "--angles", "64", "--outdir", str(tmp_path)])
    assert rw1_experiment.main() == 0
    distinct = {*rw1_experiment.EPS_SWEEP, rw1_experiment.HEADLINE_EPS}
    assert len(distinct) == 5
    assert sorted(traced) == sorted(distinct)
