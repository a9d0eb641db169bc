"""One fresh process per workload run, and per set-up sample.

The parent starts ``python -m perfbench.worker`` and measures set-up time
up to the ``READY`` line, which is printed once ``import priorscan`` and
input generation are done. With ``--setup-only`` the worker stops there.
Otherwise it runs the closed loop and prints one JSON object as its last
line: op records, peak RSS, and with tracing the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import numpy as np
import scipy

from . import metrics, workloads  # imports priorscan: part of set-up
from .tracing import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.workdir, args.seed, args.smoke)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        records = workloads.run_cycles(workload.cycle, Tracer(False), workloads.cycles_for(workload, args.seconds))
        who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliBatch) else resource.RUSAGE_SELF
        result = {"records": records, "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    else:
        result = traced_run(args, workload)
    result["defects"] = {d.name: d.why for d in workloads.KNOWN_DEFECTS}
    result["versions"] = f"numpy={np.__version__} scipy={scipy.__version__}"
    print(json.dumps(result))
    return 0


def traced_run(args, workload) -> dict:
    """Alternate traced and untraced cycles (half as many pairs as an
    untraced run has cycles), then run one probe cycle per layer group the
    workload itself does not call, so every per-layer metric is measured
    in every traced run, as the result line must hold all of them.

    Each pair starts with the traced cycle, so the first one records the
    calls the exact workload makes only once per run (its cross-check
    references)."""
    tracer = Tracer(True)
    untraced: list[dict] = []
    traced: list[dict] = []
    for _ in range(max(1, workloads.cycles_for(workload, args.seconds) // 2)):
        traced += workloads.run_cycles(workload.cycle, tracer, 1)
        untraced += workloads.run_cycles(workload.cycle, Tracer(False), 1)

    cli = workload if isinstance(workload, workloads.CliBatch) else None
    probes = []
    for cls in (workloads.CliBatch, workloads.ReweightSweep, workloads.ExactRw1):
        if isinstance(workload, cls):
            continue
        other = cls(args.workdir, args.seed, args.smoke)
        other.setup()
        probes += workloads.run_cycles(other.probe, tracer, 1)
        if cls is workloads.CliBatch:
            cli = other
    cli.time_startup(tracer)

    values = metrics.layer_metrics(
        tracer,
        [t["latency"] / u["latency"] for u, t in zip(untraced, traced)],
        sum(cli.cycle_bytes.values()),
    )
    trace_path = args.workdir.parent / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    return {"records": untraced + traced + probes, "layers": values, "trace_file": str(trace_path)}


if __name__ == "__main__":
    sys.exit(main())
