"""Tests of the benchmark itself: its oracles fire, its tracer sees every layer."""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import standgrowth as sg
import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(ROOT)


def first_ops(workload, count):
    return list(itertools.islice(workload.ops(), count))


def test_inputs_follow_the_seed(ctx, tmp_path):
    draws = [list(itertools.islice(workloads.Search(ctx, seed, tmp_path).horizons(), 10))
             for seed in (3, 3, 4)]
    assert draws[0] == draws[1] != draws[2]
    for name, horizon in draws[0]:
        lo, hi = ctx.windows[name]
        assert lo < horizon < hi


def test_convex_scenario_runs_as_its_own_search_workload(ctx, tmp_path):
    gated = workloads.make("search", ctx, 0, tmp_path)
    convex = workloads.make("search_convex", ctx, 0, tmp_path)
    assert "convex_price_power" not in {n for n, _ in itertools.islice(gated.horizons(), 8)}
    assert {n for n, _ in itertools.islice(convex.horizons(), 4)} == {"convex_price_power"}
    assert set(gated.scenarios) | set(convex.scenarios) == set(workloads.SCENARIOS)


def test_audit_oracle_fires_on_drifting_integrator(ctx):
    clean = first_ops(workloads.Audit(ctx, 0), workloads.AUDIT_POLICIES)
    faulty = first_ops(workloads.Audit(ctx, 0, fault_s_drift=1e-4),
                       workloads.AUDIT_POLICIES)
    assert all(op.check(op.run()) == [] for op in clean)
    assert all(op.check(op.run()) for op in faulty)


def test_search_oracle_flags_the_prop2_contradiction(ctx):
    loaded = ctx.loaded["convex_price_power"]
    result = sg.brute_force(loaded.scenario, loaded.economics, 34.0, n_intervals=6)
    failures = workloads.check_search(loaded.scenario, loaded.economics, 34.0, result, {})
    assert result.condition_report.branch == "E0Optimal"
    assert any("condition_report E0Optimal" in f for f in failures)


def test_search_oracle_passes_a_consistent_search(ctx):
    loaded = ctx.loaded["concave_price_power"]
    result = sg.brute_force(loaded.scenario, loaded.economics, 30.0, n_intervals=6)
    accuracy = {}
    assert workloads.check_search(loaded.scenario, loaded.economics, 30.0, result,
                                  accuracy) == []
    assert accuracy["objective_rel_err"] < workloads.VALUE_RTOL


def test_cli_oracles(ctx, tmp_path):
    cli = workloads.Cli(ctx, 5, tmp_path, inprocess=True)
    ops = first_ops(cli, cli.ops_per_round)
    assert [op.check(op.run()) for op in ops] == [[]] * len(ops)
    times = ops[workloads.CLI_COMMANDS.index("times")]
    good = times.run()
    assert times.check(workloads.CliResult(good.code, good.stdout.replace("1", "2"), ""))
    assert times.check(workloads.CliResult(1, good.stdout, "error"))


def test_tracer_rebinds_imported_names_and_counts_duplicates(ctx):
    scenario = ctx.loaded["concave_price_power"].scenario
    tr = tracing.Tracer()
    stats = tracing.LayerStats(tr, [scenario])
    original = sg.analysis.integrate
    tr.install()
    try:
        tr.op = 0
        sg.EnvelopeRefs.build(scenario, 30.0)
        sg.xi_lower_bound(scenario, 30.0)
        # Holding, then not cutting on the ceiling: a second RdiHitOne at the
        # breakpoint, which is no first ceiling hit.
        late_hit = sg.integrate(scenario, sg.Policy.piecewise([20.0], [sg.HOLD, 0.0]), 30.0)
    finally:
        tr.uninstall()
    assert sg.analysis.integrate is original is sg.dynamics.integrate
    names = [s.name for s in tr.spans]
    build = names.index("analysis.EnvelopeRefs.build")
    children = [s.name for s in tr.spans if s.parent == build]
    assert children.count("dynamics.integrate") == 2
    assert stats.duplicates == 2          # xi_lower_bound re-integrates e0 and esup
    self_times = tr.self_times()
    roots = [i for i, s in enumerate(tr.spans) if s.parent < 0]
    assert sum(self_times) == pytest.approx(sum(tr.spans[i].duration for i in roots))
    assert min(self_times) >= -1e-9
    metrics = tracing.layer_metrics(tr, stats)
    assert [e.kind for e in late_hit.events].count("RdiHitOne") == 2
    assert metrics["dynamics.integrate.calls"] == 5
    assert 0.0 < metrics["dynamics.event_time_err_max"] < 1e-6
    # The worker and the launcher add the rest of BENCHMARK.json's list.
    assert {m["name"] for m in run.SPEC["per_layer"]} - set(metrics) == {
        "cli.import_s", "cli.modules_loaded", "economics.objective_rel_err_max",
        "economics.ibp_rel_err_max", "trace.overhead_s"}


def test_launcher_runs_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in run.SPEC["workloads"]} <= set(run.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(11) == 0.0
    assert run.tail_percentile(101) == 90.0
    assert run.percentile(list(range(101)), 90.0) == 90.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
