import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import standgrowth as sg
from conftest import load, scenarios, window_horizon
from panel_objective import panel_objective, panel_objective_ibp
from standgrowth.economics import _simpson

SCENARIO_FILES = ("concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
                  "linear_growth.ini", "low_energy.ini")


class TestPrice:
    def test_zero_height_at_planting(self, convex_price):
        econ = convex_price.economics
        assert sg.price(econ, convex_price.scenario.env, 0.1, 0.0) == 0.0

    def test_undiscounted_unit_price_is_area_times_height(self, convex_price):
        env = convex_price.scenario.env
        econ = sg.EconomicModel(k=1.0, alpha=1.0, delta=0.0)
        for s, t in [(0.1, 5.0), (0.3, 40.0)]:
            assert sg.price(econ, env, s, t) == pytest.approx(s * env.h0(t), rel=1e-14)

    def test_time_derivative_is_effective_discount(self, convex_price):
        # dP/dt = -delta_h(t) P(s, t), checked by central differences.
        env = convex_price.scenario.env
        econ = sg.EconomicModel(k=2.0, alpha=1.5, delta=0.03)
        s = 0.2
        for t in (2.0, 15.0, 60.0):
            eps = 1e-5
            fd = (sg.price(econ, env, s, t + eps)
                  - sg.price(econ, env, s, t - eps)) / (2.0 * eps)
            expected = -sg.delta_h(econ, env, t) * sg.price(econ, env, s, t)
            assert fd == pytest.approx(expected, rel=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            sg.EconomicModel(k=0.0, alpha=1.0, delta=0.0)
        with pytest.raises(ValueError):
            sg.EconomicModel(k=1.0, alpha=-1.0, delta=0.0)
        with pytest.raises(ValueError):
            sg.EconomicModel(k=1.0, alpha=1.0, delta=-0.1)


class TestDeltaH:
    def test_saturating_closed_form(self, convex_price):
        env = convex_price.scenario.env
        tau = env.h0.tau
        econ = sg.EconomicModel(k=1.0, alpha=1.0, delta=0.04)
        for t in (1.0, 10.0, 80.0):
            assert sg.delta_h(econ, env, t) == pytest.approx(
                0.04 - tau / (t * (t + tau)), rel=1e-12)

    def test_negative_without_monetary_discount(self, convex_price):
        env = convex_price.scenario.env
        econ = sg.EconomicModel(k=1.0, alpha=1.0, delta=0.0)
        ts = np.linspace(0.5, 140.0, 100)
        assert np.all(sg.delta_h(econ, env, ts) < 0.0)

    def test_approaches_monetary_discount(self, convex_price):
        env = convex_price.scenario.env
        econ = sg.EconomicModel(k=1.0, alpha=1.0, delta=0.05)
        assert sg.delta_h(econ, env, 1e6) == pytest.approx(0.05, abs=1e-9)

    def test_singular_at_zero_height(self, convex_price):
        econ = sg.EconomicModel(k=1.0, alpha=1.0, delta=0.05)
        with pytest.raises(ZeroDivisionError):
            sg.delta_h(econ, convex_price.scenario.env, 0.0)


class TestSimpson:
    # Differential test against scipy's rule, whose arithmetic the numpy
    # version reproduces (Cartwright's last-interval correction for an even
    # sample count, the trapezoid for two samples).
    @pytest.mark.parametrize("spacing", ["uniform", "irregular"])
    def test_matches_scipy(self, spacing, rng):
        for n in range(2, 61):
            for _ in range(5):
                if spacing == "uniform":
                    x = np.linspace(rng.uniform(0.0, 5.0), rng.uniform(6.0, 40.0), n)
                else:
                    x = np.cumsum(rng.uniform(0.01, 2.0, size=n))
                y = np.exp(rng.normal(size=n))
                assert _simpson(y, x) == pytest.approx(simpson(y, x=x), rel=1e-14)

    @pytest.mark.parametrize("n", [9, 10])
    def test_exact_on_quadratics(self, n, rng):
        x = np.cumsum(rng.uniform(0.1, 1.0, size=n))
        y = 3.0 * x ** 2 - x + 0.5
        exact = (x[-1] ** 3 - x[0] ** 3) - 0.5 * (x[-1] ** 2 - x[0] ** 2) \
            + 0.5 * (x[-1] - x[0])
        assert _simpson(y, x) == pytest.approx(exact, rel=1e-12)


class TestObjective:
    def test_zero_policy_is_terminal_value_only(self, convex_price):
        loaded = convex_price
        scn, econ = loaded.scenario, loaded.economics
        traj = sg.integrate(scn, sg.Policy.zero(), 8.0)
        val = sg.objective(scn, econ, traj)
        expected = sg.price(econ, scn.env, traj.s[-1], 8.0) * scn.initial.n
        assert val == pytest.approx(expected, rel=1e-12)

    def test_linear_in_price_scale(self, convex_price, rng):
        scn = convex_price.scenario
        base = convex_price.economics
        doubled = dataclasses.replace(base, k=2.0 * base.k)
        policy = sg.sample_policies(scn, 1, rng, 30.0)[0]
        traj = sg.integrate(scn, policy, 30.0)
        assert sg.objective(scn, doubled, traj) == pytest.approx(
            2.0 * sg.objective(scn, base, traj), rel=1e-13)

    def test_by_parts_agreement_on_random_policies(self, convex_price, rng):
        scn, econ = convex_price.scenario, convex_price.economics
        worst = 0.0
        for policy in sg.sample_policies(scn, 100, rng, 30.0):
            traj = sg.integrate(scn, policy, 30.0, step=30.0 / 2048)
            direct = sg.objective(scn, econ, traj)
            by_parts = sg.objective_ibp(scn, econ, traj)
            worst = max(worst, abs(direct - by_parts) / max(abs(direct), 1e-12))
        assert worst <= 1e-5

    def test_stationary_limit_insensitive_to_timing(self):
        # Frozen growth and height (tiny energy, tiny tau) with no monetary
        # discount: revenue is the same no matter when the trees are sold.
        params = sg.StandParams(q=1.6, A=0.01741, n_min=150.0, e_max=40.0, t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 1e-9, 0.02),
                             h0=sg.DominantHeight(30.0, 1e-4))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.3), env=env,
                          initial=sg.StandState(t=0.0, s=0.08, n=300.0))
        econ = sg.EconomicModel(k=1.0, alpha=2.0, delta=0.0)
        stationary = econ.k * scn.initial.s ** 2 * 30.0 * scn.initial.n
        for policy in (sg.Policy.zero(), sg.Policy.max_rate(40.0),
                       sg.Policy.piecewise([10.0, 20.0], [0.0, 30.0, 0.0])):
            traj = sg.integrate(scn, policy, 30.0)
            assert sg.objective(scn, econ, traj) == pytest.approx(stationary, rel=1e-3)

    @given(alpha=st.floats(0.5, 4.0), delta=st.floats(0.0, 0.08))
    @settings(max_examples=10, deadline=None)
    def test_by_parts_agreement_across_price_models(self, convex_price, alpha, delta):
        scn = convex_price.scenario
        econ = sg.EconomicModel(k=1.0, alpha=alpha, delta=delta)
        policy = sg.Policy.piecewise([5.0, 12.0], [20.0, 0.0, sg.HOLD])
        traj = sg.integrate(scn, policy, 30.0, step=30.0 / 2048)
        direct = sg.objective(scn, econ, traj)
        by_parts = sg.objective_ibp(scn, econ, traj)
        assert by_parts == pytest.approx(direct, rel=1e-5)


def assert_same_as_panels(scn, econ, policies, horizon):
    """Both objectives of each policy's run equal the panel pair's bit for
    bit, at the default step and at a coarse one."""
    for policy in policies:
        for step in (None, horizon / 512):
            try:
                traj = sg.integrate(scn, policy, horizon, step)
            except sg.InfeasibleBoundary:
                continue
            assert sg.objective(scn, econ, traj) == panel_objective(scn, econ, traj)
            assert sg.objective_ibp(scn, econ, traj) == panel_objective_ibp(scn, econ, traj)


def _hold_boundary_stand():
    """A fagacees stand whose random ``hold|hold|hold|e_max`` policy (seed
    32071 at H = 31.016) starts its second ``hold`` segment on the ceiling.
    The state placed there by a scalar power sat an ulp away from the
    sample that ended the arc before it, so the arc's opening control was
    off by an ulp and the two objective routes parted in the last digit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy("exponential", 2.719755014355591, 0.0)
    return sg.Scenario(
        params=sg.StandParams(q=1.5624946068145726, A=0.01578209660756861,
                              n_min=128.70004592356543, e_max=78.21597746311255,
                              t_star=150.0),
        growth=sg.GrowthFunction.fagacees(9.90703263962322),
        env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=0.08562310920487298, n=257.40009184713085))


class TestSpanSums:
    """The span sums against the sample-panel pair they replaced
    (``panel_objective.py``)."""

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_bundled_scenarios(self, name):
        loaded = load(name)
        scn = loaded.scenario
        rng = np.random.default_rng(19)
        for horizon in (loaded.run.horizon, window_horizon(scn, 0.1), window_horizon(scn, 0.9)):
            policies = [sg.build_policy(scn, kind) for kind in ("zero", "max", "e0", "esup")]
            policies.append(sg.build_policy(scn, "et", T=horizon))
            policies += (sg.sample_policies(scn, 8, rng, horizon)
                         + sg.sample_policies(scn, 4, rng, horizon, terminal=True))
            assert_same_as_panels(scn, loaded.economics, policies, horizon)

    @given(scn=scenarios(), horizon=st.floats(5.0, 60.0), seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.5, 4.0), delta=st.floats(0.0, 0.08))
    @example(scn=_hold_boundary_stand(), horizon=31.01602145289894, seed=32071, alpha=0.5,
             delta=0.06783318737831356)
    @settings(max_examples=15, deadline=None)
    def test_generated_scenarios(self, scn, horizon, seed, alpha, delta):
        rng = np.random.default_rng(seed)
        policies = [sg.build_policy(scn, kind) for kind in ("zero", "max", "e0", "esup")]
        policies += (sg.sample_policies(scn, 6, rng, horizon)
                     + sg.sample_policies(scn, 3, rng, horizon, terminal=True))
        assert_same_as_panels(scn, sg.EconomicModel(k=1.0, alpha=alpha, delta=delta),
                              policies, horizon)

    def test_run_without_spans(self, concave_price):
        """A stand that starts at the exit corner under ``HOLD`` leaves at
        once, with no span: both routes give the clear-cut value alone.  Its
        density is 1e-13 below 1, inside the free span's test for a stand
        already on the ceiling."""
        scn, econ = concave_price.scenario, concave_price.economics
        p = scn.params
        s0 = ((1.0 - 1e-13) / (p.A * p.n_min)) ** (2.0 / p.q)
        scn = dataclasses.replace(scn, initial=sg.StandState(t=0.0, s=s0, n=p.n_min))
        traj = sg.integrate(scn, sg.Policy((), (sg.HOLD,)), 20.0)
        assert traj.spans == () and traj.exited
        clear_cut = float(sg.price(econ, scn.env, traj.s[0], 0.0) * p.n_min)
        assert sg.objective(scn, econ, traj) == clear_cut == sg.objective_ibp(scn, econ, traj)


class TestRevenueRate:
    def test_marginal_count_value_positive_under_condition(self, convex_price, rng):
        # Along trajectory states where the effective discount sits below
        # alpha (1-theta) xi, adding a tree (at fixed s, t) increases the
        # by-parts integrand.
        scn, econ = convex_price.scenario, convex_price.economics
        theta = scn.growth.theta
        policy = sg.sample_policies(scn, 1, rng, 30.0)[0]
        traj = sg.integrate(scn, policy, 30.0)
        idx = rng.integers(1, len(traj.t), size=200)
        checked = 0
        for i in idx:
            s, n, t = traj.s[i], traj.n[i], traj.t[i]
            xi = scn.growth.g(traj.r[i]) / n * scn.env.v(t) / s
            if sg.delta_h(econ, scn.env, t) >= econ.alpha * (1.0 - theta) * xi:
                continue
            eps = 1e-4 * n
            up = sg.revenue_rate(scn, econ, s, n + eps, t)
            down = sg.revenue_rate(scn, econ, s, n - eps, t)
            assert up - down > 0.0
            checked += 1
        assert checked > 50
