"""Run one benchmark workload on the checked-out priorscan and print its metrics.

    python3 perfbench/run.py --workload reweight_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload runs in a fresh worker
process on ``src/`` of this checkout; set-up time is the median over
several fresh worker starts. The report lists every metric with its unit
and sample count, the ops that failed their checks, and the known
defects the workload reproduces. The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` the
metrics are the per-layer ones and the spans are written to
``.bench_work/traces/``.

Exit status: 0 when the run completed (its verdict is in ``correct``),
2 when the checkout holds no priorscan source or the arguments are bad,
1 when a worker crashed or overran its time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402  (the parent never imports priorscan)
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("cli_batch", "reweight_sweep", "exact_rw1")
SETUP_STARTS = 3  # fresh worker starts per run; set-up is their median
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def worker_env() -> dict:
    """The checkout's ``src/`` first on the path, for the worker and its CLI children."""
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def start_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start a worker; return it with its set-up time (start to READY)."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    stderr = open(workdir / "worker.stderr", "ab")
    start = perf_counter()
    # a session of its own, so a watchdog kill also ends the worker's CLI children
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=stderr, text=True, start_new_session=True
    )
    stderr.close()

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        err = (workdir / "worker.stderr").read_text(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"worker exited {code} before finishing:\n  " + "\n  ".join(err))
    return rest, setup_s


def run(args) -> dict:
    if not (ROOT / "src" / "priorscan" / "__init__.py").is_file():
        raise FileNotFoundError(f"no priorscan source under {ROOT / 'src'}; run from a full checkout")
    deadline = perf_counter() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setups = [start_worker(args, workdir, True, deadline)[1] for _ in range(SETUP_STARTS - 1)]
    out, setup_s = start_worker(args, workdir, False, deadline)
    setups.append(setup_s)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc
    result["setups"] = setups
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    records = result["records"]
    attempted = len(records)
    failed = [r for r in records if r["status"] == "failed"]
    latencies = [r["latency"] for r in records]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} {result['versions']}"
    )
    if args.trace:
        values = result["layers"]
        for name, (unit, note) in PER_LAYER.items():
            print(f"layer {name} = {values[name]:.6g} {unit}  ({note})")
        print(f"trace written to {result['trace_file']}")
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        tail, label, beyond = stats.tail(latencies)
        timed = sum(latencies)
        values = {
            "setup_s": stats.median(result["setups"]),
            "latency_s.p50": stats.median(latencies),
            "latency_s.tail": tail,
            "throughput_ops_per_s": attempted / timed,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(result['setups'])} fresh worker starts",
            "latency_s.p50": f"n={attempted} ops",
            "latency_s.tail": f"{label}, {beyond} ops beyond, n={attempted} ops",
            "throughput_ops_per_s": f"{attempted} ops in {timed:.3f} s timed",
            "peak_rss_mb": "largest CLI child ru_maxrss" if args.workload == "cli_batch" else "worker ru_maxrss",
        }
        for name, unit in END_TO_END.items():
            print(f"metric {name} = {values[name]:.6g} {unit}  ({notes[name]})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"metric failed_share = {len(failed) / attempted:.6g}  ({len(failed)} of {attempted} ops failed a check)")
    for r in failed[:10]:
        print(f"failed {r['kind']}: {'; '.join(r['failures'])}")
    for name, why in result["defects"].items():
        tagged = [r for r in records if r["defect"] == name]
        if tagged:
            hit = [r for r in tagged if r["status"] == "known_defect"]
            state = "reproduced" if hit else "not reproduced"
            print(f"known_defect {name}: {state} in {len(hit)} of {len(tagged)} tagged ops ({why})")
            if hit:
                print(f"  e.g. {'; '.join(hit[0]['failures'])}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for a quick end-to-end check")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = report(args, result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
