"""Tests of the benchmark itself: its contract, oracles, checks, runner and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import priorscan as ps
import pytest
from scipy.special import gammaln, polygamma

from perfbench import inputs, oracles, stats, workloads
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import Span, Tracer
from perfbench.workloads import Allowance, Ceiling, CliBatch, CliRun, Failure, Op, run_cycles

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def test_benchmark_json_lists_the_metrics_the_benchmark_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- oracles ----------------------------------------------------------------


def naive_gamma_log_bc(a0, b0, a1, b1):
    abar, bbar = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
    return (
        gammaln(abar) - abar * math.log(bbar)
        + 0.5 * (a0 * math.log(b0) + a1 * math.log(b1))
        - 0.5 * (gammaln(a0) + gammaln(a1))
    )


@pytest.mark.parametrize("a0,b0,da,db", [(1.0, 0.34, 0.2, 0.1), (3.0, 2.0, -0.5, 0.7), (30.0, 5.0, 4.0, -1.0)])
def test_gamma_oracle_matches_the_textbook_form_at_moderate_distances(a0, b0, da, db):
    got = float(oracles.gamma_log_bc(a0, b0, da, db))
    assert math.isclose(got, naive_gamma_log_bc(a0, b0, a0 + da, b0 + db), rel_tol=1e-9)


def test_normal_oracle_matches_the_textbook_form_at_moderate_distances():
    l0, l1, dm = 0.7, 1.9, 0.4
    naive = 0.5 * math.log(2.0 * math.sqrt(l0 * l1) / (l0 + l1)) - dm**2 * l0 * l1 / (4.0 * (l0 + l1))
    assert math.isclose(float(oracles.normal_log_bc(l0, dm, l1 - l0)), naive, rel_tol=1e-12)


def test_oracles_follow_the_fisher_limit_at_tiny_perturbations():
    # H^2 ~ d' I d / 8 with I the Fisher information at the base point
    d = np.array([3e-7, -2e-7])
    a, b = 2.5, 1.3
    fisher = np.array([[polygamma(1, a), -1.0 / b], [-1.0 / b, a / b**2]])
    h = oracles.hellinger_from_log_bc(oracles.gamma_log_bc(a, b, d[0], d[1]))
    assert math.isclose(float(h) ** 2, d @ fisher @ d / 8.0, rel_tol=1e-5)
    lam = 0.8
    h = oracles.hellinger_from_log_bc(oracles.normal_log_bc(lam, d[0], d[1]))
    assert math.isclose(float(h) ** 2, (lam * d[0] ** 2 + d[1] ** 2 / (2 * lam**2)) / 8.0, rel_tol=1e-5)


# -- every check can fail ----------------------------------------------------


def exact_entries(case, epsilon, n_angles=16):
    base = ps.PriorSpec(ps.Family(case.family), ps.ParamPoint(*case.prior))
    points = workloads.contour_points(ps.compute_grid(base, epsilon, n_angles=n_angles))
    return np.column_stack([points, oracles.posterior_distance(case, points) / epsilon])


@pytest.mark.parametrize("family", [inputs.GAMMA, inputs.NORMAL])
def test_ratio_and_contour_checks_fail_on_wrong_answers(family):
    case = inputs.make_case(family, inputs.rng_for(0, 9))
    entries = exact_entries(case, 1e-3)
    assert oracles.check_ratios(case, 1e-3, entries).ok
    assert oracles.check_contour(family, case.prior, 1e-3, entries[:, :2], ps.RESIDUAL_RTOL).ok

    wrong = entries.copy()
    wrong[3, 2] += 2e-4
    assert oracles.check_ratios(case, 1e-3, wrong).misses == 1
    wrong[5, 2] = math.nan
    assert oracles.check_ratios(case, 1e-3, wrong).misses == 2

    off = entries[:, :2].copy()
    off[2] = np.array(case.prior) + 1.001 * (off[2] - np.array(case.prior))
    assert oracles.check_contour(family, case.prior, 1e-3, off, ps.RESIDUAL_RTOL).misses == 1


def test_agreement_check_fails_on_a_wrong_ratio():
    ratios = np.linspace(0.2, 0.6, 12)
    assert oracles.check_agreement("a vs b", ratios, ratios + 5e-5).ok
    shifted = ratios.copy()
    shifted[7] += 2e-4
    assert oracles.check_agreement("a vs b", ratios, shifted).misses == 1
    assert not oracles.check_agreement("a vs b", ratios, ratios[:-1]).ok


def test_exact_check_flags_zero_and_non_finite_ratios():
    prior = (1.0, 0.005)
    base = ps.PriorSpec(ps.Family.GAMMA, ps.ParamPoint(*prior))
    grid = ps.compute_grid(base, 1e-2, n_angles=workloads.EXACT_ANGLES)
    entries = [SimpleNamespace(point=gp.point, ratio=0.5) for gp in grid.points]
    check = workloads.check_exact(prior, 1e-2)
    assert check(SimpleNamespace(entries=entries, failed_angles=()), Tracer(False)) == []
    entries[0] = SimpleNamespace(point=entries[0].point, ratio=0.0)
    failures = check(SimpleNamespace(entries=entries, failed_angles=()), Tracer(False))
    assert [(f.kind, f.misses) for f in failures] == [("zero_ratio", 1)]
    entries[1] = SimpleNamespace(point=entries[1].point, ratio=math.inf)
    assert [f.kind for f in check(SimpleNamespace(entries=entries, failed_angles=()), Tracer(False))] == ["output"]


def test_cli_checks_fail_on_wrong_output_exit_code_and_changed_bytes(tmp_path):
    cli = CliBatch(tmp_path, 4)
    cli.setup()
    tracer = Tracer(False)
    want = oracles.calibrated_distance(cli.mu)
    assert cli._check_calibrate(CliRun(0, f"h = {want!r}\n", "", {}), tracer) == []
    assert cli._check_calibrate(CliRun(0, f"h = {want * (1 + 1e-9)!r}\n", "", {}), tracer)

    op = cli._op("bad_input", "bad_epsilon", ["grid"], None, expect_exit=2)
    assert op.check(CliRun(2, "", "error: epsilon out of range\n", {}), tracer) == []
    assert op.check(CliRun(2, "changed", "error: epsilon out of range\n", {}), tracer)[0].kind == "output"
    assert op.check(CliRun(1, "", "Traceback ...\n", {}), tracer)[0].kind == "exit:1"

    defect = cli._op("bad_input", "bad_config_family", ["grid"], None, 2, workloads.CONFIG_FAMILY_EXIT_1)
    defect.failures = defect.check(CliRun(1, "", "Traceback ...\n", {}), tracer)
    assert defect.status() == "known_defect"
    defect.failures = defect.check(CliRun(0, "", "", {}), tracer)
    assert defect.status() == "failed"


# -- runner, tracing, statistics ----------------------------------------------


def test_failed_ops_are_counted_and_the_run_goes_on():
    def boom(tracer):
        raise RuntimeError("boom")

    allowance = Allowance(workloads.SMALL_EPSILON, {"ratio": Ceiling(4, 1e-3)})

    def fails(*failures):
        return lambda out, t: list(failures)

    def cycle(tracer):
        yield Op("raises", boom, fails())
        yield Op("wrong", lambda t: 1, fails(Failure("ratio", "ratio off by 2e-4", 1, 2e-4)))
        yield Op("defect", lambda t: 1, fails(Failure("ratio", "miss", 4, 1e-3)), allowance)
        yield Op("defect_worse", lambda t: 1, fails(Failure("ratio", "miss", 4, 1.1e-3)), allowance)
        yield Op("defect_more", lambda t: 1, fails(Failure("ratio", "miss", 5, 1e-4)), allowance)
        yield Op("defect_other", lambda t: 1, fails(Failure("output", "bad")), allowance)
        yield Op("fine", lambda t: 1, fails())

    records = run_cycles(cycle, Tracer(False), 2)
    assert [r["status"] for r in records] == ["failed", "failed", "known_defect", "failed", "failed", "failed", "ok"] * 2
    assert all(r["latency"] >= 0.0 for r in records)
    assert records[0]["failures"] == ["RuntimeError: boom"]


def test_the_op_count_is_set_by_the_arguments_alone():
    assert [workloads.cycles_for(SimpleNamespace(cycle_seconds=10.0), s) for s in (1, 20, 30, 31)] == [2, 2, 3, 4]
    # at the benchmark's run length every workload runs three whole cycles
    assert {workloads.cycles_for(cls, SPEC["run_seconds"]) for cls in workloads.WORKLOADS.values()} == {3}


def test_only_the_failing_exact_pairs_carry_an_allowance():
    assert set(workloads.EXACT_SMALL_EPSILON_AT) <= {(n, eps) for n in workloads.EXACT_NS for eps in workloads.EXACT_EPS}
    assert all(eps < 5e-3 for n, eps in workloads.EXACT_SMALL_EPSILON_AT)
    within = Failure("agreement", "", 10, 1e-3)
    beyond = Failure("agreement", "", 10, 0.5)
    allowance = workloads.EXACT_SMALL_EPSILON_AT[8004, 1e-4]
    assert allowance.covers(within) and not allowance.covers(beyond)
    assert not allowance.covers(Failure("residual", "", 1, 1e-3))


def test_tracer_busy_and_self_time_count_nested_spans_once():
    tracer = Tracer(True)
    tracer.spans = [
        Span(0, None, 1, "op.narrow", None, 0.0, 10.0),
        Span(1, 0, 1, "sensitivity.emit", None, 1.0, 5.0),
        Span(2, 1, 1, "sensitivity.summarize", None, 1.5, 2.5),
        Span(3, 0, 1, "contour.compute_grid", None, 6.0, 9.0),
    ]
    assert tracer.busy_by_layer() == {"op": 10.0, "sensitivity": 4.0, "contour": 3.0}
    assert tracer.self_time("op") == 3.0
    assert tracer.self_time("sensitivity") == 4.0
    assert Tracer(False).span("x") is Tracer(False).span("y")


@pytest.mark.parametrize("n,label,beyond", [(20, "p75 (fewer than 10 beyond)", 5), (40, "p75", 10), (100, "p90", 10), (200, "p95", 10), (1000, "p99", 10)])
def test_tail_uses_the_highest_percentile_with_ten_samples_beyond(n, label, beyond):
    value, got_label, got_beyond = stats.tail(list(range(n)))
    assert (got_label, got_beyond) == (label, beyond)
    assert value == np.percentile(np.arange(n), int(label[1:3]))


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        wl = workloads.ReweightSweep(tmp_path / name, seed, smoke=True)
        wl.setup()
        return {p.name: p.read_bytes() for p in sorted(wl.dir.iterdir())}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


# -- end to end --------------------------------------------------------------


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=175,
    )


@pytest.mark.parametrize("workload,trace", [("reweight_sweep", 0), ("cli_batch", 0), ("exact_rw1", 1)])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = LAYER_UNITS if trace else END_TO_END
    assert {name: m["unit"] for name, m in final["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in final["metrics"].values())
    for name in expected:
        assert f" {name} = " in proc.stdout


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "reweight_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
