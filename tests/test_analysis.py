import dataclasses

import numpy as np
import pytest

import standgrowth as sg
from standgrowth.cli import main
from conftest import SCENARIO_DIR, envelope_refs, xi_bound


class TestH3:
    def test_unbounded_rate_passes(self, convex_price):
        p = dataclasses.replace(convex_price.scenario.params, e_max=1e12)
        scn = dataclasses.replace(convex_price.scenario, params=p)
        ok, margin = sg.check_h3(scn)
        assert ok and margin > 1e11

    def test_vanishing_energy_margin_is_e_max(self, convex_price):
        scn = convex_price.scenario
        tiny = dataclasses.replace(scn.env, v=sg.GrowthEnergy("exponential", 1e-12, 0.02))
        ok, margin = sg.check_h3(dataclasses.replace(scn, env=tiny))
        assert ok
        assert margin == pytest.approx(scn.params.e_max, rel=1e-9)

    @pytest.mark.parametrize("family", ["exponential", "hyperbolic"])
    def test_worst_rate_at_start_for_decreasing_energy(self, family):
        # Peak rate (q/2) v0 / s_m sits at t = 0: 0.8 * 2 / 0.05 = 32, margin 8.
        params = sg.StandParams(q=1.6, A=0.001, n_min=100.0, e_max=40.0, t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy(family, 2.0, 0.05),
                             h0=sg.DominantHeight(30.0, 20.0))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.3), env=env,
                          initial=sg.StandState(t=0.0, s=0.05, n=1000.0))
        ok, margin = sg.check_h3(scn)
        assert ok
        assert margin == pytest.approx(8.0, abs=1e-12)

    def test_failure_reports_negative_margin(self):
        params = sg.StandParams(q=1.6, A=0.001, n_min=100.0, e_max=10.0, t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.05),
                             h0=sg.DominantHeight(30.0, 20.0))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.3), env=env,
                          initial=sg.StandState(t=0.0, s=0.05, n=1000.0))
        ok, margin = sg.check_h3(scn)
        assert not ok and margin == pytest.approx(-22.0, abs=1e-12)


class TestHypotheses:
    def test_all_pass_on_presets(self, convex_price, concave_price, fagacees):
        for loaded in (convex_price, concave_price, fagacees):
            rep = sg.check_hypotheses(loaded.scenario)
            assert rep.all_pass, rep.to_json_dict()

    def test_h3_failure_detected(self):
        params = sg.StandParams(q=1.6, A=0.001, n_min=100.0, e_max=5.0, t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.05),
                             h0=sg.DominantHeight(30.0, 20.0))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.3), env=env,
                          initial=sg.StandState(t=0.0, s=0.05, n=1000.0))
        rep = sg.check_hypotheses(scn)
        assert not rep.h3_ceiling_rate and not rep.all_pass
        # Peak rate 0.8 * 2 / 0.05 = 32 at t = 0 against e_max = 5.
        assert rep.witnesses == (("H3", rep.h3_margin),)
        assert rep.h3_margin == pytest.approx(-27.0, abs=1e-12)

    def test_h4_failure_witness_is_gamma_lower(self, convex_price):
        # theta = 1 - 1e-10 leaves 1 - theta below the elasticity margin, so
        # gamma_lower rounds to 0 and H4 fails on exactly that value.
        scn = dataclasses.replace(convex_price.scenario,
                                  growth=sg.GrowthFunction.power(1.0 - 1e-10))
        rep = sg.check_hypotheses(scn)
        assert rep.h1_energy and rep.h2_competition and rep.h3_ceiling_rate
        assert not rep.h4_elasticity and not rep.all_pass
        assert rep.witnesses == (("H4", 0.0),)

    def test_near_linear_power_growth_passes(self, tmp_path):
        # theta = 1e-15 is admissible, though g(r) rounds to r: the
        # hypotheses hold by construction, whatever g's rounding.
        text = (SCENARIO_DIR / "linear_growth.ini").read_text()
        path = tmp_path / "near_linear.ini"
        path.write_text(text.replace("variant = linear", "variant = power\ntheta = 1e-15"))
        rep = sg.check_hypotheses(sg.load_scenario(path).scenario)
        assert rep.all_pass and rep.witnesses == (), rep.to_json_dict()
        assert main(["verify", str(path), "--policies", "10"]) == 0


class TestThresholds:
    def test_power_closed_form(self, convex_price):
        scn = convex_price.scenario
        p = scn.params
        theta = scn.growth.theta
        r_floor = sg.rdi(p, p.n_min, scn.initial.s)
        g_floor = r_floor ** (1.0 - theta)
        expected = (1.0 + p.q / 2.0 * (1.0 / g_floor - (1.0 - theta))) / theta
        assert sg.b_star(scn) == pytest.approx(expected, rel=1e-6)

    def test_undefined_for_linear_growth(self, linear_growth):
        with pytest.raises(ValueError):
            sg.b_star(linear_growth.scenario)


class TestXiLowerBound:
    def test_exponent_collapse_at_ceiling_cap(self, fagacees):
        # At t_cap0 the slow reference reaches the maximal basal area s_bar,
        # which caps the general form, so the bound reduces to s'/s_bar
        # whatever the exponent split.
        scn = fagacees.scenario
        p = scn.params
        t_cap = sg.t_cap0(scn)
        bound = sg.xi_lower_bound(scn, t_cap)
        assert bound.form == "general" and bound.t[-1] == t_cap
        sdot = scn.growth_rate(t_cap, p.s_bar, p.n_min)
        assert bound.values[-1] == pytest.approx(sdot / p.s_bar, rel=1e-9)

    def test_floor_holds_for_random_policies(self, convex_price, rng):
        scn = convex_price.scenario
        bound = xi_bound(scn, 30.0)
        for policy in sg.sample_policies(scn, 50, rng, 30.0):
            traj = sg.integrate(scn, policy, 30.0, step=30.0 / 1024)
            r = traj.r
            xi = scn.growth.g(r) / traj.n * scn.env.v(traj.t) / traj.s
            assert np.min(xi - bound(traj.t)) >= -1e-6


class TestAudit:
    def test_fast_reference_self_audit_clean(self, convex_price):
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        report = sg.audit_trajectory(scn, refs.fast, refs)
        assert report.clean, report.violations[:4]

    def test_slow_reference_self_audit_tight_and_clean(self, convex_price):
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        report = sg.audit_trajectory(scn, refs.slow, refs)
        assert report.clean
        # Self-comparison: the slow-side envelopes bind with equality.
        s_hi, n_hi = refs.slow_sn(refs.slow.t)
        np.testing.assert_allclose(refs.slow.s, s_hi, rtol=1e-12)
        np.testing.assert_allclose(refs.slow.n, n_hi, rtol=1e-12)

    def test_random_policies_zero_violations(self, convex_price, rng):
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        bound = xi_bound(scn, 30.0)
        for policy in sg.sample_policies(scn, 20, rng, 30.0):
            traj = sg.integrate(scn, policy, 30.0)
            report = sg.audit_trajectory(scn, traj, refs, xi_m=bound)
            assert report.clean, (policy.describe(), report.violations[:4])

    def test_terminal_envelopes(self, convex_price, rng):
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0, with_terminal=True)
        audited = 0
        for policy in sg.sample_policies(scn, 12, rng, 30.0, terminal=True):
            traj = sg.integrate(scn, policy, 30.0)
            if traj.validity_end < 30.0:   # stranded at the ceiling: not admissible to T
                continue
            report = sg.audit_trajectory(scn, traj, refs, terminal=True)
            audited += 1
            assert report.clean, report.violations[:4]
            assert traj.n[-1] == pytest.approx(scn.params.n_min)
        assert audited >= 5

    def test_fast_side_checks_skipped_without_power_growth(self, fagacees, rng):
        scn = fagacees.scenario
        refs = envelope_refs(scn, 30.0)
        traj = sg.integrate(scn, sg.sample_policies(scn, 1, rng, 30.0)[0], 30.0)
        report = sg.audit_trajectory(scn, traj, refs)
        assert report.clean
        skipped = ("s_le_fast", "growth_per_tree_le_fast")
        assert not any(c.startswith(skipped) for c in report.checks_run)

    def test_reversed_ordering_fails_early_and_is_not_audited(self, convex_price):
        # For b above the threshold the n s**b ordering between the two
        # references fails near t = 0 (shared start, count factor dominates)
        # and settles into the reversed order later.  The audit must not
        # fail the trajectory over it.
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        b = 1.05 * sg.b_star(scn)
        ts = refs.slow.t
        s_lo, n_lo = refs.fast_sn(ts)
        w_lo = np.log(n_lo) + b * np.log(s_lo)
        w_hi = np.log(refs.slow.n) + b * np.log(refs.slow.s)
        diff = w_lo - w_hi
        assert diff[1] < -1e-4      # early: reversed ordering fails hard
        assert diff[-1] > 1e-2      # late: reversed ordering holds
        report = sg.audit_trajectory(scn, refs.fast, refs)
        assert report.clean

    def test_fast_product_lower_bound_has_counterexamples(self, convex_price):
        # A constant-rate policy that removes the same trees as the fast
        # reference but finishes later ends up with a smaller n s**b mid
        # flight (here at the density index b = q/2), so that ordering is
        # not audited and must not fail the audit.
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        policy = sg.Policy.piecewise([11.596], [31.237, 0.0])
        traj = sg.integrate(scn, policy, 30.0)
        b = 0.8
        s_lo, n_lo = refs.fast_sn(traj.t)
        w = np.log(traj.n) + b * np.log(traj.s)
        w_lo = np.log(n_lo) + b * np.log(s_lo)
        assert np.max(w_lo - w) > 1e-3
        assert sg.audit_trajectory(scn, traj, refs).clean

    def test_slow_product_upper_bound_has_counterexamples(self):
        # Once the slow reference is thinning on the density ceiling, a
        # policy that cut a window of trees mid-horizon and then grows freely
        # can overtake the reference's n s**b, so the direct-ordering upper
        # bound is not audited either.
        params = sg.StandParams(q=1.6, A=0.01741, n_min=150.0, e_max=40.0,
                                t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.02),
                             h0=sg.DominantHeight(30.0, 20.0))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.2),
                          env=env, initial=sg.StandState(t=0.0, s=0.08, n=300.0))
        refs = sg.EnvelopeRefs.build(scn, 30.0, step=30.0 / 2048)
        policy = sg.Policy.piecewise([3.153, 8.646], [0.0, 21.367, 0.0])
        traj = sg.integrate(scn, policy, 30.0, step=30.0 / 2048)
        b = 0.9
        s_hi, n_hi = refs.slow_sn(traj.t)
        w = np.log(traj.n) + b * np.log(traj.s)
        w_hi = np.log(n_hi) + b * np.log(s_hi)
        assert np.max(w - w_hi) > 1e-3
        assert sg.audit_trajectory(scn, traj, refs).clean

    def test_report_json_carries_no_threshold_fields(self, convex_price):
        # The n s**b orderings are not audited, so the report records neither
        # their threshold nor any product diagnostics.
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        doc = sg.audit_trajectory(scn, refs.fast, refs).to_json_dict()
        assert set(doc) == {"hypotheses", "xi_m_form", "checks_run", "violations",
                            "clean"}
        assert not any(c.startswith("diag_") for c in doc["checks_run"])

    def test_corrupted_integrator_is_flagged(self, convex_price, rng):
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        policy = sg.sample_policies(scn, 1, rng, 30.0)[0]
        traj = sg.integrate(scn, policy, 30.0, fault_s_drift=2e-5)
        report = sg.audit_trajectory(scn, traj, refs)
        assert not report.clean

    def test_report_serializes(self, convex_price, rng):
        import json
        from standgrowth.dynamics import json_text
        scn = convex_price.scenario
        refs = envelope_refs(scn, 30.0)
        traj = sg.integrate(scn, sg.sample_policies(scn, 1, rng, 30.0)[0], 30.0)
        report = sg.audit_trajectory(scn, traj, refs)
        payload = json.loads(json_text(report.to_json_dict()))
        assert payload["clean"] is True
        assert payload["hypotheses"]["H3_ceiling_rate_below_e_max"] is True
