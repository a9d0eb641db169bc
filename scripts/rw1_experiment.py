"""Sensitivity experiment on the conjugate smoothing model.

Generates (or ingests) a monthly count series, fits the exact
random-walk posterior for the precision, and sweeps the contour radius
to chart how the worst-case posterior disturbance responds.  Also
contrasts the full series against its last-96-month window, and
cross-checks the exact engine against the grid-reweighting route at one
radius.

Run from the repository root:

    python3 scripts/rw1_experiment.py --outdir results

With the public drivers series fetched (see fetch_drivers.py):

    python3 scripts/rw1_experiment.py --data data/drivers.csv --outdir results
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

from priorscan import (
    ParamPoint,
    circular_sensitivity,
    compute_grid,
    exact_sensitivity,
    export_plot_data,
    ingest_timeseries,
    summarize,
    tabulate_posterior,
)

EPS_SWEEP = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
HEADLINE_EPS = 1e-3

# Synthetic stand-in for a seasonal monthly count series: a level, a
# fixed 12-month profile, a slow random-walk drift, and noise.  Sixteen
# years so that the last-96 window is a proper subset.
SYNTH_SEED = 20260815
SYNTH_YEARS = 16
SYNTH_LEVEL = 35.0
SYNTH_AMP = (0.0, -1.1, 0.6, 1.8, 2.9, 3.4, 3.9, 3.1, 1.9, 0.7, -0.4, -1.6)


def synth_counts(seed: int = SYNTH_SEED, n_months: int = 12 * SYNTH_YEARS) -> np.ndarray:
    """Synthetic monthly counts over whole years, built on the square-root
    scale, so that ingestion (square root, per-month de-seasoning,
    centering) recovers a series the random-walk model describes well."""
    rng = np.random.default_rng(seed)
    drift = np.cumsum(rng.normal(0.0, 0.30, size=n_months))
    noise = rng.normal(0.0, 1.2, size=n_months)
    sqrt_scale = SYNTH_LEVEL + np.tile(SYNTH_AMP, n_months // 12) + drift + noise
    return np.maximum(np.rint(sqrt_scale**2), 1.0)


def write_rows(path: Path, fieldnames, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, default=None,
                        help="monthly counts CSV; synthetic series if omitted")
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--angles", type=int, default=400)
    parser.add_argument("--prior", type=str, default="1,0.005",
                        help="base gamma prior as shape,rate")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    data = args.data
    if data is None:
        data = args.outdir / "synthetic_counts.csv"
        data.write_text("count\n" + "".join(f"{int(c)}\n" for c in synth_counts()))
        print(f"wrote synthetic series to {data}")

    shape, rate = (float(v) for v in args.prior.split(","))
    prior = ParamPoint(shape, rate)
    full = ingest_timeseries(data, window="full", prior=prior)
    last96 = ingest_timeseries(data, window="last96", prior=prior)
    print(f"ingested n = {full.n} months, kappa = {full.kappa:.4f} "
          f"(last-96 window kappa = {last96.kappa:.4f})")

    # Radius sweep on the full series.  The worst case should move
    # smoothly with the radius; a jump would flag a calibration or
    # contour defect.
    sweep_rows = []
    for eps in EPS_SWEEP:
        res = exact_sensitivity(full, eps, n_angles=args.angles)
        sweep_rows.append({
            "epsilon": eps,
            "worst_case": res.worst_case,
            "worst_angle": res.worst_angle,
            "mean": res.mean,
        })
        print(f"  eps = {eps:7.4f}: worst {res.worst_case:.4f} "
              f"at angle {res.worst_angle:+.3f}")
    write_rows(args.outdir / "epsilon_sweep.csv", list(sweep_rows[0]),
               [row.values() for row in sweep_rows])
    spread = max(r["worst_case"] for r in sweep_rows) - min(
        r["worst_case"] for r in sweep_rows)
    print(f"  sweep spread {spread:.4f}")

    # Sample-size contrast at the headline radius.
    res_full = exact_sensitivity(full, HEADLINE_EPS, n_angles=args.angles)
    res_96 = exact_sensitivity(last96, HEADLINE_EPS, n_angles=args.angles)
    print(f"worst case at eps = {HEADLINE_EPS}: "
          f"{res_full.worst_case:.4f} (n = {full.n}) vs "
          f"{res_96.worst_case:.4f} (n = {last96.n})")
    print(summarize(res_full))

    # Dual-route check: reweight the tabulated posterior around the
    # same contour and compare ratios angle by angle.
    posterior = tabulate_posterior(full)
    grid = compute_grid(posterior.base_prior, HEADLINE_EPS, args.angles)
    res_grid = circular_sensitivity(posterior, grid)
    gap = float(np.max(np.abs(res_full.entries.ratio - res_grid.entries.ratio)))
    print(f"exact vs reweighting over {args.angles} angles: "
          f"max ratio gap {gap:.2e}")

    polar, rolled = export_plot_data(res_full)
    write_rows(args.outdir / "polar_sensitivity.csv", polar.dtype.names, polar.tolist())
    write_rows(args.outdir / "rolled_sensitivity.csv", rolled.dtype.names, rolled.tolist())
    report = {
        "data": str(data),
        "n_full": full.n,
        "kappa_full": full.kappa,
        "worst_case_full": res_full.worst_case,
        "n_last96": last96.n,
        "kappa_last96": last96.kappa,
        "worst_case_last96": res_96.worst_case,
        "epsilon_sweep": sweep_rows,
        "exact_vs_reweighting_max_gap": gap,
    }
    with (args.outdir / "experiment_report.json").open("w") as fh:
        json.dump(report, fh, indent=2)
    print(f"report and plot tables written to {args.outdir}/")

    if not math.isfinite(res_full.worst_case):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
