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
