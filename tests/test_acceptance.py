"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  Runtime-sensitive criteria carry their
stated budgets; numeric tolerances are pinned in the assertions.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest
from scipy.integrate import quad

import standgrowth as sg
from conftest import SCENARIO_DIR

HORIZON = 30.0
SWEEP_STEP = HORIZON / 2048


def announce(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
            return result
        return wrapper
    return deco


def _stand_scenario(growth):
    params = sg.StandParams(q=1.6, A=0.01741, n_min=150.0, e_max=40.0, t_star=150.0)
    env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.02),
                         h0=sg.DominantHeight(30.0, 20.0))
    return sg.Scenario(params=params, growth=growth, env=env,
                       initial=sg.StandState(t=0.0, s=0.08, n=300.0))


@pytest.fixture(scope="module")
def envelope_presets():
    return {
        "power_02": _stand_scenario(sg.GrowthFunction.power(0.2)),
        "power_05": _stand_scenario(sg.GrowthFunction.power(0.5)),
        "fagacees_3": _stand_scenario(sg.GrowthFunction.fagacees(3.0)),
    }


@pytest.fixture(scope="module")
def envelope_sweep(envelope_presets):
    """Criterion 4/5 workload: 100 random policies per preset, audited."""
    t0 = time.time()
    rng = np.random.default_rng(424242)
    results = {}
    for name, scn in envelope_presets.items():
        refs = sg.EnvelopeRefs.build(scn, HORIZON, step=SWEEP_STEP,
                                     with_terminal=True)
        xi_m = sg.xi_lower_bound(scn, HORIZON, step=SWEEP_STEP)
        policies = sg.sample_policies(scn, 50, rng, HORIZON) \
            + sg.sample_policies(scn, 50, rng, HORIZON, terminal=True)
        audits = []
        for policy in policies:
            traj = sg.integrate(scn, policy, HORIZON, step=SWEEP_STEP)
            terminal = traj.validity_end >= HORIZON * (1.0 - 1e-12) \
                and traj.n[-1] <= scn.params.n_min * (1.0 + 1e-9)
            report = sg.audit_trajectory(scn, traj, refs, terminal=terminal,
                                         xi_m=xi_m)
            audits.append((policy, traj, report))
        results[name] = audits
    results["elapsed"] = time.time() - t0
    return results


@pytest.fixture(scope="module")
def regime1():
    return sg.load_scenario(SCENARIO_DIR / "convex_price_power.ini")


@pytest.fixture(scope="module")
def regime2():
    return sg.load_scenario(SCENARIO_DIR / "concave_price_power.ini")


_SEARCH_CACHE: dict = {}


def regime1_search(loaded):
    if "regime1" not in _SEARCH_CACHE:
        _SEARCH_CACHE["regime1"] = sg.brute_force(loaded.scenario, loaded.economics,
                                                  HORIZON, n_intervals=8)
    return _SEARCH_CACHE["regime1"]


@announce("1 linear-growth closed form")
def test_01_linear_growth_closed_form():
    loaded = sg.load_scenario(SCENARIO_DIR / "linear_growth.ini")
    scn = loaded.scenario
    p = scn.params
    expo = 1.0 - p.q / 2.0
    rng = np.random.default_rng(11)
    t0 = time.time()
    for policy in sg.sample_policies(scn, 20, rng, HORIZON):
        traj = sg.integrate(scn, policy, HORIZON)
        expected = np.array([
            (scn.initial.s ** expo + p.A * expo * sg.energy(scn.env, 0.0, t))
            ** (1.0 / expo) for t in traj.t])
        np.testing.assert_allclose(traj.s, expected, rtol=1e-6)
    assert time.time() - t0 < 5.0


@announce("2 power-growth closed form")
def test_02_power_growth_closed_form():
    loaded = sg.load_scenario(SCENARIO_DIR / "convex_price_power.ini")
    scn = loaded.scenario
    p = scn.params
    theta = scn.growth.theta
    m = 1.0 - p.q / 2.0 * (1.0 - theta)
    rng = np.random.default_rng(12)
    for policy in sg.sample_policies(scn, 20, rng, HORIZON):
        traj = sg.integrate(scn, policy, HORIZON)
        probes = np.linspace(0.15, 0.95, 5) * traj.validity_end
        for t_probe in probes:
            val, _ = quad(lambda u: scn.env.v(u) / traj.interp_n(u) ** theta,
                          0.0, t_probe, limit=300,
                          points=[start for _, start, _ in traj.spans if start < t_probe])
            expected = (scn.initial.s ** m
                        + p.A ** (1.0 - theta) * m * val) ** (1.0 / m)
            assert traj.interp_s(t_probe) == pytest.approx(expected, rel=1e-5)


@announce("3 ceiling-arc exit time")
def test_03_boundary_arc_exit_matches_root(regime1):
    scn = regime1.scenario
    t_upper = sg.t_cap0(scn)
    traj = sg.integrate(scn, sg.build_policy(scn, "esup"), scn.params.t_star)
    assert traj.exited
    assert abs(traj.validity_end - t_upper) <= 1e-4 * t_upper


@announce("4 envelope suite")
def test_04_envelope_suite(envelope_sweep):
    total_policies = 0
    for name in ("power_02", "power_05", "fagacees_3"):
        for policy, traj, report in envelope_sweep[name]:
            total_policies += 1
            assert report.clean, (name, policy.describe(), report.violations[:4])
    assert total_policies == 300
    assert envelope_sweep["elapsed"] < 60.0
    print("  (asserted envelopes clean on 300 policies)")


@announce("5 per-tree growth monotone in time")
def test_05_growth_per_tree_monotone(envelope_sweep, envelope_presets):
    for name, scn in envelope_presets.items():
        for policy, traj, report in envelope_sweep[name]:
            gpt = scn.growth.g(traj.r) / traj.n
            assert np.all(np.diff(gpt) >= -1e-6 * np.abs(gpt[:-1])), \
                (name, policy.describe())
            assert "growth_per_tree_nondecreasing" in report.checks_run


@announce("6 density-rate consistency")
def test_06_density_rate_finite_difference_order(regime1):
    scn = regime1.scenario
    policy = sg.Policy.piecewise([4.0], [15.0, 0.0])
    errs = []
    for steps in (128, 256):
        traj = sg.integrate(scn, policy, 8.0, step=8.0 / steps)
        t, r, dr = traj.t, traj.r, traj.drdt
        fd = (r[3:-1] - r[1:-3]) / (t[3:-1] - t[1:-3])
        inner = slice(2, len(t) - 2)
        mask = np.abs(t[inner] - 4.0) > 3 * 8.0 / steps
        errs.append(np.max(np.abs(fd - dr[inner])[mask]))
    ratio = errs[0] / errs[1]
    assert 2.8 < ratio < 5.5, ratio


@announce("7 convex-price optimum is cut-first")
def test_07_regime1_brute_force(regime1):
    t0 = time.time()
    res = regime1_search(regime1)
    assert res.condition_report.branch == "E0Optimal"
    e0_val = res.canonical_values["E0"]
    assert e0_val is not None
    assert res.best_value <= e0_val * (1.0 + 1e-4)
    feasible = {k: v for k, v in res.canonical_values.items() if v is not None}
    assert e0_val >= max(feasible.values()) - 1e-9 * abs(e0_val)
    assert time.time() - t0 < 600.0


@announce("8 concave-price optimum rides the ceiling")
def test_08_regime2_brute_force(regime2):
    res = sg.brute_force(regime2.scenario, regime2.economics, HORIZON,
                         n_intervals=8)
    assert res.condition_report.branch == "EsupOptimal"
    esup_val = res.canonical_values["Esup"]
    assert res.best_value <= esup_val * (1.0 + 1e-4)
    feasible = {k: v for k, v in res.canonical_values.items() if v is not None}
    assert esup_val >= max(feasible.values()) - 1e-9 * abs(esup_val)
    # Terminal-count variant: the exact-target policy takes over.
    res_t = sg.brute_force(regime2.scenario, regime2.economics, HORIZON,
                           n_intervals=8, terminal_n_min=True)
    assert res_t.condition_report.branch == "ETOptimal"
    assert res_t.best_policy.kind == "et"


@announce("9 cut-first intuition falsifiable")
def test_09_canonical_comparison_both_ways(regime1, regime2):
    first = sg.compare_canonicals(regime1.scenario, regime1.economics, HORIZON)
    assert first.cut_first_dominates
    assert first.values["E0"] > first.values["Esup"] * (1.0 + 1e-6)
    second = sg.compare_canonicals(regime2.scenario, regime2.economics, HORIZON)
    assert not second.cut_first_dominates
    assert second.values["Esup"] > second.values["E0"] * (1.0 + 1e-6)


@announce("10 optimal schedule horizon-independent in the convex regime")
def test_10_horizon_independence(regime1):
    scn, econ = regime1.scenario, regime1.economics
    shorter = 20.0
    res_short = sg.brute_force(scn, econ, shorter, n_intervals=8)
    restricted = regime1_search(regime1).best_policy   # evaluation stops at the horizon
    traj = sg.integrate(scn, restricted, shorter)
    val = sg.objective(scn, econ, traj)
    assert val >= res_short.best_value * (1.0 - 1e-4)


@announce("11 validity diagnostics flip with available energy")
def test_11_validity_diagnostic_flip():
    loaded = sg.load_scenario(SCENARIO_DIR / "low_energy.ini")
    scn = loaded.scenario
    assert sg.validity_diagnostics(scn).classification == "unreachable"
    scaled = dataclasses.replace(
        scn, env=dataclasses.replace(
            scn.env, v=sg.GrowthEnergy(scn.env.v.family, 10.0 * scn.env.v.v0,
                                       scn.env.v.lam)))
    assert sg.validity_diagnostics(scaled).classification == "reachable"
