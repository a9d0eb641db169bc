"""Metric names, units, and which end-to-end metric each layer metric should move.

``BENCHMARK.json`` lists the same names; the benchmark's tests keep the two
in step. End-to-end metrics come from untraced runs, per-layer metrics
from traced runs (``--trace 1``).
"""

from __future__ import annotations

from .stats import median

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_KINDS = ("calibrate", "grid", "sensitivity", "rw1_exact", "rw1_reweight", "bad_input")
LAYERS = ("cli", "grids", "contour", "sensitivity", "rw1")

_CLI = "moves latency_s.* on cli_batch; setup_s on every workload"
_GRIDS = "moves throughput_ops_per_s on reweight_sweep (a small share)"
_CONTOUR = "moves throughput_ops_per_s on reweight_sweep, a little of cli_batch, a small share of cold exact_rw1"
_CONTOUR_COUNTS = "moves the small-epsilon known-defect count on reweight_sweep"
_SENS = "moves throughput_ops_per_s and latency_s.tail on reweight_sweep; not exact_rw1"
_RW1 = "moves latency_s.* and peak_rss_mb on exact_rw1; not reweight_sweep"

# name -> (unit, which end-to-end metric it should move on which workload, or what it is)
PER_LAYER = {
    "cli.interpreter_s": ("s", _CLI),
    "cli.import_s": ("s", _CLI),
    **{f"cli.{kind}_s": ("s", _CLI) for kind in CLI_KINDS},
    "cli.bytes_written": ("bytes", _CLI),
    "grids.read_density_csv_s": ("s", _GRIDS),
    "grids.points_read": ("count", _GRIDS),
    "contour.compute_grid_narrow_s": ("s", _CONTOUR),
    "contour.compute_grid_wide_s": ("s", _CONTOUR),
    "contour.angles_attempted": ("count", _CONTOUR_COUNTS),
    "contour.angles_failed": ("count", _CONTOUR_COUNTS),
    "contour.solved_ratio": ("ratio", _CONTOUR_COUNTS),
    "sensitivity.circular_sensitivity_narrow_s": ("s", _SENS),
    "sensitivity.circular_sensitivity_wide_s": ("s", _SENS),
    "reweight.cells": ("count", _SENS),
    "reweight.cells_per_s": ("1/s", _SENS),
    "sensitivity.emit_s": ("s", _SENS),
    "sensitivity.oracle_misses": ("count", _CONTOUR_COUNTS),
    "rw1.ingest_s": ("s", _RW1),
    "rw1.exact_cold_s": ("s", _RW1),
    "rw1.exact_warm_s": ("s", _RW1),
    "rw1.tabulate_posterior_s": ("s", _RW1),
    "rw1.models": ("count", _RW1),
    "rw1.exact_calls": ("count", _RW1),
    **{f"busy_s.{layer}": ("s", "wall time inside the layer's public calls") for layer in LAYERS},
    "self_s.op": ("s", "benchmark glue inside op spans, outside every layer call"),
    "trace.spans": ("count", "spans recorded"),
    "trace.overhead_share": ("ratio", "median traced/untraced latency of paired ops, minus 1"),
}


def layer_metrics(tracer, paired_ratios: list[float], cli_bytes: int) -> dict[str, float]:
    """Per-layer values from the spans and counts of a traced run.

    ``paired_ratios`` holds traced over untraced latency for the same op in
    consecutive identical cycles; their median, minus 1, is the overhead.
    """

    def p50(name: str, tag: str | None = None) -> float:
        values = tracer.durations(name, tag)
        if not values:
            raise RuntimeError(f"no {name} span{' tagged ' + tag if tag else ''} was recorded")
        return median(values)

    counts = tracer.counts
    busy = tracer.busy_by_layer()
    attempted = counts["contour.angles_attempted"]
    failed = counts.get("contour.angles_failed", 0)
    cells = counts["reweight.cells"]
    values = {
        "cli.interpreter_s": p50("cli.interpreter"),
        "cli.import_s": p50("cli.import"),
        **{f"cli.{kind}_s": p50(f"cli.{kind}") for kind in CLI_KINDS},
        "cli.bytes_written": cli_bytes,
        "grids.read_density_csv_s": p50("grids.read_density_csv"),
        "grids.points_read": counts["grids.points_read"],
        "contour.compute_grid_narrow_s": p50("contour.compute_grid", "narrow"),
        "contour.compute_grid_wide_s": p50("contour.compute_grid", "wide"),
        "contour.angles_attempted": attempted,
        "contour.angles_failed": failed,
        "contour.solved_ratio": 1.0 - failed / attempted,
        "sensitivity.circular_sensitivity_narrow_s": p50("sensitivity.circular_sensitivity", "narrow"),
        "sensitivity.circular_sensitivity_wide_s": p50("sensitivity.circular_sensitivity", "wide"),
        "reweight.cells": cells,
        "reweight.cells_per_s": cells / sum(tracer.durations("sensitivity.circular_sensitivity")),
        "sensitivity.emit_s": p50("sensitivity.emit"),
        "sensitivity.oracle_misses": counts.get("sensitivity.oracle_misses", 0),
        "rw1.ingest_s": p50("rw1.ingest_timeseries"),
        "rw1.exact_cold_s": p50("rw1.exact_sensitivity", "cold"),
        "rw1.exact_warm_s": p50("rw1.exact_sensitivity", "warm"),
        "rw1.tabulate_posterior_s": p50("rw1.tabulate_posterior"),
        "rw1.models": counts["rw1.models"],
        "rw1.exact_calls": counts["rw1.exact_calls"],
        **{f"busy_s.{layer}": busy[layer] for layer in LAYERS},
        "self_s.op": tracer.self_time("op"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_share": median(paired_ratios) - 1.0,
    }
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return values
