import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import standgrowth as sg
from standgrowth.dynamics import DEFAULT_STEPS, _cut_crossings
from conftest import load, scenarios, window_horizon

SCENARIO_FILES = ("concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
                  "linear_growth.ini", "low_energy.ini")


def small_stand(n_min=100.0, e_max=40.0, A=0.001, growth=None, v0=2.0, lam=0.02,
                n0=1000.0, s0=0.05):
    params = sg.StandParams(q=1.6, A=A, n_min=n_min, e_max=e_max, t_star=150.0)
    env = sg.Environment(v=sg.GrowthEnergy("exponential", v0, lam),
                         h0=sg.DominantHeight(30.0, 20.0))
    return sg.Scenario(params=params, growth=growth or sg.GrowthFunction.power(0.3),
                       env=env, initial=sg.StandState(t=0.0, s=s0, n=n0))


class TestGrowthRate:
    def test_full_density_growth_is_energy_over_count(self, convex_price):
        scn = convex_price.scenario
        p = scn.params
        s = 0.12
        n = 1.0 / (p.A * s ** (p.q / 2.0))   # r = 1 exactly
        assert scn.growth_rate(2.0, s, n) == pytest.approx(scn.env.v(2.0) / n, rel=1e-12)

    def test_linear_growth_is_count_free(self):
        scn = small_stand(growth=sg.GrowthFunction.linear())
        p = scn.params
        for n in (150.0, 400.0, 900.0):
            expected = p.A * 0.06 ** (p.q / 2.0) * scn.env.v(3.0)
            assert scn.growth_rate(3.0, 0.06, n) == pytest.approx(expected, rel=1e-12)


class TestDrdt:
    def test_positive_under_free_growth(self, convex_price):
        scn = convex_price.scenario
        traj = sg.integrate(scn, sg.build_policy(scn, "zero"), 1.0)
        assert traj.drdt[0] > 0.0

    def test_finite_difference_consistency(self, convex_price):
        # Oracle: centered differences of sampled r along a trajectory; the
        # mismatch against the analytic rate must shrink as O(step**2).
        scn = convex_price.scenario
        policy = sg.Policy.piecewise([3.0], [10.0, 0.0])
        errs = []
        for steps in (64, 128):
            traj = sg.integrate(scn, policy, 8.0, step=8.0 / steps)
            t, r, dr = traj.t, traj.r, traj.drdt
            inner = slice(2, len(t) - 2)
            fd = (r[3:-1] - r[1:-3]) / (t[3:-1] - t[1:-3])
            mask = np.abs(t[inner] - 3.0) > 3 * 8.0 / steps  # skip the kink
            errs.append(np.max(np.abs(fd - dr[inner])[mask]))
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 6.0


class TestIntegrate:
    def test_zero_policy_keeps_count(self, convex_price):
        traj = sg.integrate(convex_price.scenario, sg.Policy.zero(), 8.0)
        assert np.all(traj.n == traj.n[0])

    def test_linear_growth_closed_form(self):
        scn = small_stand(growth=sg.GrowthFunction.linear())
        p = scn.params
        expo = 1.0 - p.q / 2.0
        policy = sg.Policy.piecewise([4.0, 9.0], [0.0, 25.0, 5.0])
        traj = sg.integrate(scn, policy, 20.0, step=20.0 / 4096)
        expected = np.array([
            (scn.initial.s ** expo + p.A * expo * sg.energy(scn.env, 0.0, t)) ** (1 / expo)
            for t in traj.t])
        np.testing.assert_allclose(traj.s, expected, rtol=1e-6)

    def test_max_policy_linear_depletion(self):
        scn = small_stand()
        traj = sg.integrate(scn, sg.Policy.max_rate(40.0), 10.0)
        assert traj.n[-1] == pytest.approx(600.0, abs=1e-9)

    def test_n_min_event_time(self):
        scn = small_stand(n_min=600.0)
        traj = sg.integrate(scn, sg.Policy.max_rate(40.0), 12.0)
        hits = [ev for ev in traj.events if ev.kind == "NMinHit"]
        assert len(hits) == 1
        assert hits[0].time == pytest.approx(10.0, abs=1e-9)
        # Clamp holds the count at the floor afterwards.
        assert traj.n[-1] == pytest.approx(600.0, abs=1e-12)

    def test_n_min_error_mode(self):
        """The error names the time the count reaches n_min, where the clamp
        records NMinHit."""
        scn = small_stand(n_min=600.0)
        clamped = sg.integrate(scn, sg.Policy.max_rate(40.0), 12.0)
        t_hit = next(ev.time for ev in clamped.events if ev.kind == "NMinHit")
        with pytest.raises(sg.NonViable, match=rf"at t={t_hit:.6g}$"):
            sg.integrate(scn, sg.Policy.max_rate(40.0), 12.0, on_n_min="error")

    def test_uncut_span_is_exact_at_any_step(self, convex_price):
        # Free growth is a closed form: a coarse run lands on the fine run's
        # values instead of converging to them.
        scn = convex_price.scenario
        ref = sg.integrate(scn, sg.Policy.zero(), 8.0, step=8.0 / 4096)
        for steps in (32, 64):
            traj = sg.integrate(scn, sg.Policy.zero(), 8.0, step=8.0 / steps)
            assert traj.s[-1] == pytest.approx(ref.s[-1], rel=1e-12, abs=0.0)
            # The coarse times are nodes of the fine grid (dyadic steps).
            np.testing.assert_allclose(traj.s, ref.interp_s(traj.t), rtol=1e-12, atol=0.0)

    def test_ceiling_arc_is_exact_at_any_step(self, convex_price):
        # Free growth, the ceiling hit and the arc are all closed forms.
        scn = convex_price.scenario
        pol = sg.build_policy(scn, "esup")
        ref = sg.integrate(scn, pol, 20.0, step=20.0 / 4096)
        assert [kind for kind, _, _ in ref.spans] == ["free", "arc"]
        for steps in (32, 64):
            traj = sg.integrate(scn, pol, 20.0, step=20.0 / steps)
            assert traj.n[-1] == pytest.approx(ref.n[-1], rel=1e-12, abs=0.0)
            assert traj.s[-1] == pytest.approx(ref.s[-1], rel=1e-12, abs=0.0)

    def test_cut_span_is_exact_at_any_step(self, convex_price):
        # Under power growth a cut span is a closed form as well: cutting at
        # e_max, stopped short of n_min, lands on the fine run's values.
        scn = convex_price.scenario
        p = scn.params
        horizon = 0.9 * sg.time_to_count(p, scn.initial.n, p.n_min)
        pol = sg.Policy.max_rate(p.e_max)
        ref = sg.integrate(scn, pol, horizon, step=horizon / 2048)
        assert [kind for kind, _, _ in ref.spans] == ["cut"]
        for steps in (32, 64):
            traj = sg.integrate(scn, pol, horizon, step=horizon / steps)
            assert traj.n[-1] == pytest.approx(ref.n[-1], rel=1e-12, abs=0.0)
            assert traj.s[-1] == pytest.approx(ref.s[-1], rel=1e-12, abs=0.0)

    def test_fagacees_cut_span_is_exact_at_any_step(self, fagacees):
        # Fagacees cut spans are solved by Gauss-Legendre collocation, exact
        # to rounding at these steps: at e_max / 8 over 27 years, stopped
        # short of n_min, 32 and 64 steps land on the fine run's values.
        scn = fagacees.scenario
        p = scn.params
        rate = p.e_max / 8.0
        horizon = 0.9 * (scn.initial.n - p.n_min) / rate
        pol = sg.Policy.max_rate(rate)
        ref = sg.integrate(scn, pol, horizon, step=horizon / 2048)
        assert [kind for kind, _, _ in ref.spans] == ["cut"]
        for steps in (32, 64):
            traj = sg.integrate(scn, pol, horizon, step=horizon / steps)
            assert traj.n[-1] == pytest.approx(ref.n[-1], rel=1e-12, abs=0.0)
            assert traj.s[-1] == pytest.approx(ref.s[-1], rel=1e-12, abs=0.0)
            np.testing.assert_allclose(traj.s, ref.interp_s(traj.t), rtol=1e-12, atol=0.0)

    def test_constraints_respected_along_random_policies(self, convex_price, rng):
        scn = convex_price.scenario
        p = scn.params
        for policy in sg.sample_policies(scn, 20, rng, 30.0):
            traj = sg.integrate(scn, policy, 30.0, step=30.0 / 1024)
            assert np.all(traj.r <= 1.0 + 1e-6)
            assert np.all(traj.n >= p.n_min - 1e-6)
            assert np.all(np.diff(traj.n) <= 1e-12)
            assert np.all(np.diff(traj.s) > -1e-9 * traj.s[:-1])

    def test_growth_per_tree_nondecreasing(self, convex_price, rng):
        scn = convex_price.scenario
        p = scn.params
        for policy in sg.sample_policies(scn, 10, rng, 30.0):
            traj = sg.integrate(scn, policy, 30.0, step=30.0 / 1024)
            gpt = scn.growth.g(traj.r) / traj.n
            assert np.all(np.diff(gpt) >= -1e-9 * gpt[:-1])

    def test_growth_per_tree_decreasing_in_count(self, convex_price, rng):
        scn = convex_price.scenario
        p = scn.params
        s, t = 0.1, 5.0
        ns = np.sort(rng.uniform(p.n_min, 1.0 / (p.A * s ** (p.q / 2.0)), size=200))
        vals = scn.growth.g(sg.rdi(p, ns, s)) / ns
        assert np.all(np.diff(vals) < 0.0)

    def test_infeasible_boundary_raises(self):
        """Along an arc the ceiling-holding rate only falls, so the error
        names the time the ride starts: the first ceiling hit."""
        scn = small_stand(A=0.01741, n0=300.0, s0=0.08, e_max=1.0, n_min=150.0)
        with pytest.raises(sg.InfeasibleBoundary, match=rf"at t={sg.t_sup0(scn):.6g}$"):
            sg.integrate(scn, sg.build_policy(scn, "esup"), 40.0)

    def test_hold_rides_from_the_ceiling_hit(self, concave_price):
        """A stand 1e-10 below the ceiling under ``HOLD`` grows freely to
        its :meth:`Scenario.ceiling_time`, and rides the ceiling from there."""
        scn = concave_price.scenario
        p, n0 = scn.params, scn.initial.n
        s0 = ((1.0 - 1e-10) / (p.A * n0)) ** (2.0 / p.q)
        scn = dataclasses.replace(scn, initial=sg.StandState(t=0.0, s=s0, n=n0))
        traj = sg.integrate(scn, sg.Policy((), (sg.HOLD,)), 20.0)
        t_hit = float(scn.ceiling_time(0.0, s0, n0))
        assert 0.0 < t_hit < 1e-8
        assert traj.events[0] == sg.TrajectoryEvent(t_hit, "RdiHitOne", False)
        assert traj.spans == (("free", 0.0, t_hit), ("arc", t_hit, 20.0))

    @pytest.mark.parametrize("name", ["concave_price_power.ini", "convex_price_power.ini",
                                      "fagacees.ini", "linear_growth.ini", "low_energy.ini"])
    def test_ride_carries_across_a_hold_breakpoint(self, name):
        """A breakpoint between two ``HOLD`` levels changes nothing: the
        ride carries on across it."""
        loaded = load(name)
        scn, H = loaded.scenario, loaded.run.horizon
        e_max = scn.params.e_max
        split = sg.integrate(scn, sg.Policy.piecewise([0.6 * H, 0.8 * H],
                                                      [sg.HOLD, sg.HOLD, e_max]), H)
        whole = sg.integrate(scn, sg.Policy.piecewise([0.8 * H], [sg.HOLD, e_max]), H)
        assert [ev.kind for ev in split.events] == [ev.kind for ev in whole.events]
        np.testing.assert_allclose([ev.time for ev in split.events],
                                   [ev.time for ev in whole.events], rtol=1e-12)
        assert split.validity_end == pytest.approx(whole.validity_end, rel=1e-12)

    def test_fault_drift_compounds_per_step_and_once_on_an_arc(self, convex_price):
        """Free and cut spans drift s once more at every step; on the
        ceiling s follows the count, drifted once per sample."""
        scn, drift = convex_price.scenario, 1e-6
        for policy, kind in ((sg.Policy.zero(), "free"),
                             (sg.Policy.max_rate(scn.params.e_max / 10), "cut")):
            clean = sg.integrate(scn, policy, 5.0)
            traj = sg.integrate(scn, policy, 5.0, fault_s_drift=drift)
            assert [span[0] for span in traj.spans] == [kind]
            np.testing.assert_array_equal(traj.n, clean.n)
            np.testing.assert_array_equal(traj.s,
                                          clean.s * (1.0 + drift) ** np.arange(clean.s.size))
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), 20.0, fault_s_drift=drift)
        assert [span[0] for span in traj.spans] == ["free", "arc"]
        # The hit itself is placed on the ceiling; the arc's samples follow it.
        ride = traj.on_arc & (traj.t > traj.spans[1][1])
        assert ride.sum() > 100
        np.testing.assert_array_equal(traj.s[ride],
                                      scn.params.ceiling_s(traj.n[ride]) * (1.0 + drift))

    @pytest.mark.parametrize("name", ["concave_price_power.ini", "convex_price_power.ini",
                                      "fagacees.ini", "linear_growth.ini"])
    def test_cut_crossing_located_to_rounding(self, name):
        """Cutting at e_max/100 crosses the ceiling inside a step (between
        8.57 and 9.49); the bisected time matches an independent root of
        the density along the step, by Brent's method."""
        brentq = pytest.importorskip("scipy.optimize").brentq
        scn = load(name).scenario
        p = scn.params
        rate = p.e_max / 100
        traj = sg.integrate(scn, sg.Policy.piecewise([], [rate]), p.t_star)
        event = traj.events[-1]
        assert (event.kind, event.terminal, traj.spans[-1][0]) == ("RdiHitOne", True, "cut")
        t0, s0, n0 = traj.t[-2], traj.s[-2], traj.n[-2]

        def excess(hh):
            times, counts = np.array([t0, t0 + hh]), np.array([n0, n0 - hh * rate])
            return p.A * counts[1] * scn.cut_s_after(s0, times, counts)[0] ** (p.q / 2) - 1.0

        root = t0 + brentq(excess, 0.0, p.t_star / DEFAULT_STEPS, xtol=1e-15)
        assert event.time == pytest.approx(root, rel=0.0, abs=2 * math.ulp(root))
        assert traj.n[-1] == pytest.approx(n0 - (event.time - t0) * rate, rel=1e-15)

    def test_cut_crossing_at_a_breakpoint(self, fagacees):
        """A breakpoint within rounding of a cut crossing ends a step there:
        the span finds the density above 1 at the step end, while the
        one-step solve from the step start may round it below (of these 20
        breakpoints, the one 16 ulp after the crossing does); the crossing
        is then that end."""
        scn = fagacees.scenario
        rate, horizon = scn.params.e_max / 10, scn.params.t_star
        t_c = sg.integrate(scn, sg.Policy.piecewise([], [rate]), horizon).events[-1].time
        for k in range(-29, 30, 3):
            b = t_c + k * math.ulp(t_c)
            traj = sg.integrate(scn, sg.Policy.piecewise([b], [rate, rate]), horizon)
            assert traj.events[-1].kind == "RdiHitOne"
            assert traj.events[-1].time == pytest.approx(t_c, rel=1e-12)

    @pytest.mark.parametrize("name, divisor, k", [
        ("fagacees.ini", 10, 18), ("concave_price_power.ini", 10, -10),
        ("convex_price_power.ini", 20, 0), ("linear_growth.ini", 20, -9),
        ("linear_growth.ini", 20, -8)])
    def test_cut_crossing_at_a_step_end_rounded_below(self, name, divisor, k):
        """A breakpoint ``k`` ulp from the crossing of a cut at e_max/divisor
        ends the step in which the span finds the density above 1, while the
        one-step solve from the step start rounds it below 1 there: the
        crossing is that step end."""
        scn = load(name).scenario
        p = scn.params
        rate = p.e_max / divisor
        t_c = sg.integrate(scn, sg.Policy.piecewise([], [rate]), p.t_star).events[-1].time
        b = t_c + k * math.ulp(t_c)
        traj = sg.integrate(scn, sg.Policy.piecewise([b], [rate, rate]), p.t_star)
        assert (traj.events[-1].kind, traj.events[-1].time) == ("RdiHitOne", b)
        # The step from the last sample before the crossing, as one row.
        t0, s0, n0 = traj.t[-2:-1], traj.s[-2:-1], traj.n[-2:-1]
        h = b - t0
        n1 = n0 - h * rate
        s1 = scn.cut_s_after(s0, np.array([[t0[0], b]]), np.array([[n0[0], n1[0]]]))[0, 0]
        assert p.A * n1[0] * s1 ** (p.q / 2) < 1.0
        assert _cut_crossings(scn, t0, s0, n0, np.full(1, rate), h)[0] == h[0]

    def test_horizon_beyond_validity_rejected(self, convex_price):
        with pytest.raises(ValueError):
            sg.integrate(convex_price.scenario, sg.Policy.zero(), 200.0)

    @pytest.mark.parametrize("horizon,step,name", [
        (math.nan, None, "horizon"), (10.0, math.nan, "step"), (10.0, math.inf, "step")])
    def test_non_finite_horizon_or_step_rejected(self, convex_price, horizon, step, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            sg.integrate(convex_price.scenario, sg.Policy.zero(), horizon, step=step)

    def test_unknown_n_min_mode_rejected(self, convex_price):
        with pytest.raises(ValueError, match="on_n_min must be 'clamp' or 'error' \\(got stop\\)"):
            sg.integrate(convex_price.scenario, sg.Policy.zero(), 5.0, on_n_min="stop")

    @pytest.mark.parametrize("drift", [float("nan"), float("inf"), -1.0])
    def test_fault_drift_must_keep_s_finite_and_positive(self, convex_price, drift):
        with pytest.raises(ValueError, match="fault_s_drift must be finite and above -1"):
            sg.integrate(convex_price.scenario, sg.Policy.zero(), 5.0, fault_s_drift=drift)

    def test_negative_policy_count_rejected(self, convex_price, rng):
        with pytest.raises(ValueError, match="policy count must be non-negative"):
            sg.sample_policies(convex_price.scenario, -3, rng, 20.0)

    def test_zero_policy_count_is_empty(self, convex_price, rng):
        # The CLI rejects --policies 0, but library callers may ask for none.
        assert sg.sample_policies(convex_price.scenario, 0, rng, 20.0) == []

    def test_policy_rate_above_e_max_rejected(self, convex_price):
        policy = sg.Policy.piecewise([], [60.0])
        with pytest.raises(ValueError):
            sg.integrate(convex_price.scenario, policy, 10.0)


class TestSpans:
    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_esup_never_cuts(self, name):
        scn = load(name).scenario
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), scn.params.t_star)
        kinds = [kind for kind, _, _ in traj.spans]
        assert kinds[0] == "free" and "cut" not in kinds

    def test_spans_tile_the_run(self, convex_price, rng):
        scn = convex_price.scenario
        for policy in sg.sample_policies(scn, 20, rng, 30.0, terminal=True):
            traj = sg.integrate(scn, policy, 30.0)
            kinds, starts, ends = zip(*traj.spans)
            assert set(kinds) <= {"free", "arc", "cut"}
            assert starts[0] == 0.0 and ends[-1] == traj.validity_end
            assert starts[1:] == ends[:-1]
            assert all(a < b for a, b in zip(starts, ends))


class TestExports:
    def test_csv_header_and_events_roundtrip(self, convex_price, tmp_path):
        scn = convex_price.scenario
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), 40.0)
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.events.json"
        sg.write_trajectory_csv(traj, scn.env, csv_path)
        sg.write_events_json(traj, json_path)

        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "s", "n", "r", "e", "h"]
        final = [float(x) for x in rows[-1]]
        assert final[3] == pytest.approx(1.0, abs=1e-6)          # r at the corner
        assert final[2] == pytest.approx(scn.params.n_min, abs=1e-6)
        # Height column reproduces the dominant height at the sample times.
        assert final[5] == pytest.approx(scn.env.h0(final[0]), rel=1e-9)

        payload = json.loads(json_path.read_text())
        assert payload["exited"] is True
        kinds = [ev["kind"] for ev in payload["events"]]
        assert "RdiHitOne" in kinds and "ExitPoint" in kinds
        assert payload["validity_end"] == pytest.approx(traj.validity_end)

    @pytest.mark.parametrize("name", ["concave_price_power.ini", "convex_price_power.ini",
                                      "fagacees.ini", "linear_growth.ini", "low_energy.ini"])
    def test_csv_bytes_match_csv_writer(self, name, tmp_path):
        """The one-string writer writes the bytes of the ``csv.writer`` loop
        it replaced, on runs that end at the horizon, at the ceiling and at
        the exit corner."""
        scn = load(name).scenario
        horizon = window_horizon(scn, 0.5)
        for kind in ("zero", "max", "esup", "et"):
            traj = sg.integrate(scn, sg.build_policy(scn, kind, horizon), horizon)
            got, want = tmp_path / f"{kind}.csv", tmp_path / f"{kind}.ref.csv"
            sg.write_trajectory_csv(traj, scn.env, got)
            h_vals = scn.env.h0(traj.t)
            with open(want, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "s", "n", "r", "e", "h"])
                for i in range(len(traj.t)):
                    writer.writerow([f"{traj.t[i]:.12g}", f"{traj.s[i]:.12g}",
                                     f"{traj.n[i]:.12g}", f"{traj.r[i]:.12g}",
                                     f"{traj.e[i]:.12g}", f"{h_vals[i]:.12g}"])
            assert got.read_bytes() == want.read_bytes(), kind

    def test_esup_control_matches_ceiling_rate(self, convex_price):
        scn = convex_price.scenario
        p = scn.params
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), 40.0)
        arc = traj.on_arc
        expected = sg.boundary_control(p, scn.env, traj.s[arc], traj.t[arc])
        np.testing.assert_allclose(traj.e[arc], expected, rtol=1e-12)


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_level_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sg.Policy.piecewise([5.0], [bad, 0.0])

    @pytest.mark.parametrize("bad", ["max", None, "Hold"])
    @pytest.mark.parametrize("build", [
        lambda lv: sg.Policy.piecewise([], [lv]),
        lambda lv: sg.Policy((), (lv,)),
    ], ids=["piecewise", "Policy"])
    def test_unknown_level_names_invariant(self, build, bad):
        with pytest.raises(ValueError, match=f'levels must be rates or "hold" \\(got {bad!r}\\)'):
            build(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_breakpoint_rejected(self, bad):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            sg.Policy.piecewise([bad], [10.0, 0.0])

    @pytest.mark.parametrize("bps, levels, message", [
        ([5.0], [0.0], "need exactly one more level than breakpoints"),
        ([5.0, 5.0], [0.0, 1.0, 0.0], "breakpoints must be strictly increasing"),
        ([8.0, 5.0], [0.0, 1.0, 0.0], "breakpoints must be strictly increasing"),
        ([0.0], [1.0, 0.0], "breakpoints must be positive"),
    ])
    def test_bad_shape_names_invariant(self, bps, levels, message):
        with pytest.raises(ValueError, match=message):
            sg.Policy.piecewise(bps, levels)

    def test_numeric_levels_stored_as_floats(self):
        # Schedules are cache keys by (breakpoints, levels): equal schedules
        # must compare and hash equal whatever numeric type spelled them.
        spelled = sg.Policy((5,), ("5", 0))
        policy = sg.Policy((5.0,), (5.0, 0.0))
        assert spelled == policy and hash(spelled) == hash(policy)
        assert all(type(v) is float for v in spelled.breakpoints + spelled.levels)
        assert sg.Policy((), ("5",)) == sg.Policy((), (5.0,))

    def test_hold_is_spelled_hold(self):
        # A "hold" built at run time is a distinct str object; piecewise maps
        # it to the HOLD constant so identity tests on levels keep working.
        spelled = "".join(["ho", "ld"])
        policy = sg.Policy.piecewise([5.0], [spelled, 5.0])
        assert policy == sg.Policy.piecewise([5.0], [sg.HOLD, 5.0])
        assert policy.levels[0] is sg.HOLD
        assert policy.describe()["levels"] == ["hold", 5.0]


def rk4_arc_step(scenario, t, s, n, h):
    """One RK4 step of the ceiling-riding system under the ceiling-holding
    rate (q/2) V/s: the arc step ``integrate`` took before the closed form."""
    p, g, v = scenario.params, scenario.growth.g, scenario.env.v
    A, q2 = p.A, p.q / 2.0

    def deriv(tt, ss, nn):
        return g(A * nn * ss ** q2) / nn * v(tt), -q2 * v(tt) / ss

    k1s, k1n = deriv(t, s, n)
    k2s, k2n = deriv(t + h / 2, s + h / 2 * k1s, n + h / 2 * k1n)
    k3s, k3n = deriv(t + h / 2, s + h / 2 * k2s, n + h / 2 * k2n)
    k4s, k4n = deriv(t + h, s + h * k3s, n + h * k3n)
    return (s + h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
            n + h / 6.0 * (k1n + 2.0 * k2n + 2.0 * k3n + k4n))


class TestCeilingArcAgainstRk4:
    """Differential test: the closed-form ceiling steps of ``integrate``
    against the RK4 arc step (with projection onto r = 1) they replaced,
    replayed over the same sample times from the first ceiling sample."""

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    @pytest.mark.parametrize("kind", ["esup", "et"])
    def test_states_agree(self, name, kind):
        scn = load(name).scenario
        p = scn.params
        if kind == "esup":
            horizon = p.t_star
        else:   # a target late enough that et rides the ceiling before its burst
            t_cap = sg.t_cap0(scn)
            horizon = 0.8 * (p.t_star if sg.is_unreachable(t_cap) else t_cap)
        policy = sg.build_policy(scn, kind, T=horizon if kind == "et" else None)
        traj = sg.integrate(scn, policy, horizon)
        arc = np.flatnonzero(traj.on_arc[:-1] & traj.on_arc[1:])
        if traj.exited:
            arc = arc[:-1]          # the exit step ends at the root, not a node
        assert arc.size > 100
        assert np.all(np.diff(arc) == 1)   # one contiguous stretch
        s, n = traj.s[arc[0]], traj.n[arc[0]]
        for i in arc:
            s, n = rk4_arc_step(scn, traj.t[i], s, n, traj.t[i + 1] - traj.t[i])
            s = (p.A * n) ** (-2.0 / p.q)
            assert traj.n[i + 1] == pytest.approx(n, rel=1e-12, abs=0.0)
            assert traj.s[i + 1] == pytest.approx(s, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_exit_at_closed_form_time(self, name):
        scn = load(name).scenario
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), scn.params.t_star)
        t_cap = sg.t_cap0(scn)
        assert traj.exited == (not sg.is_unreachable(t_cap))
        if traj.exited:
            assert traj.validity_end == pytest.approx(t_cap, abs=1e-9)


class TestInvariantsOnGeneratedScenarios:
    """Model invariants along random policies on generated scenarios.

    The by-parts check runs at the default step H/4096.  At H/1024 the two
    forms can differ by 1e-6 after a cutting burst shorter than two steps
    (e h / n about 0.2): the direct form integrates P e over that burst on a
    three-sample Simpson panel.  On one such generated scenario its error
    against an H/65536 reference fell 8.6e-7 -> 5.3e-8 -> 8.7e-10 at H/1024,
    H/2048 and H/4096, and the panel carried 8.4e-7 of the 8.6e-7.  The
    panel error stays the same with the exact state at its nodes, although
    s there is off by 1.1e-7 relative, so it is quadrature error, and it
    converges like the rest of the rule.
    """

    @given(scn=scenarios(), horizon=st.floats(5.0, 60.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sampled_policies(self, scn, horizon, seed):
        p = scn.params
        rng = np.random.default_rng(seed)
        econ = sg.EconomicModel(k=1.0, alpha=2.0, delta=0.01)
        policies = sg.sample_policies(scn, 2, rng, horizon) \
            + sg.sample_policies(scn, 2, rng, horizon, terminal=True)
        for policy in policies:
            traj = sg.integrate(scn, policy, horizon)
            assert np.all(traj.r <= 1.0 + 1e-12)
            assert np.all(traj.n >= p.n_min * (1.0 - 1e-12))
            assert np.all(np.diff(traj.s) >= 0.0)
            assert sg.objective(scn, econ, traj) == pytest.approx(
                sg.objective_ibp(scn, econ, traj), rel=1e-6)


def assert_sample_spacing(scenario, traj):
    """Samples stand at least 1e-13 apart, and each NMinHit sample is at n_min
    with no cutting after it."""
    assert np.all(np.diff(traj.t) >= 1e-13)
    for ev in traj.events:
        if ev.kind == "NMinHit":
            i = int(np.argmin(np.abs(traj.t - ev.time)))
            assert abs(traj.t[i] - ev.time) < 1e-13 * max(1.0, ev.time)
            assert traj.n[i] == scenario.params.n_min
            assert traj.e[i] == 0.0


class TestSampleSpacing:
    """A sample less than 1e-13 after the previous one merges into it, with
    the later state, wherever it comes from."""

    @pytest.mark.parametrize("step", [None, 30.0 / 512])
    def test_n_min_reached_on_a_node(self, concave_price, step):
        # Cutting at e_max reaches n_min at t = 3.75, which is node 512 of the
        # default grid at H = 30 (and node 64 at H/512).  The closed-form
        # count there is n_min, so the cut is spent at that node and records
        # NMinHit there, with no sample added after it.
        scn = concave_price.scenario
        traj = sg.integrate(scn, sg.build_policy(scn, "max"), 30.0, step=step)
        assert [ev.time for ev in traj.events if ev.kind == "NMinHit"] == [3.75]
        nodes = 513 if step is None else 65
        assert np.count_nonzero(traj.t <= 3.75) == nodes
        assert_sample_spacing(scn, traj)

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_bundled_scenarios(self, name):
        loaded = load(name)
        scn, horizon = loaded.scenario, loaded.run.horizon
        rng = np.random.default_rng(12)
        policies = [sg.build_policy(scn, kind) for kind in ("zero", "max", "e0", "esup")]
        policies += sg.sample_policies(scn, 4, rng, horizon) \
            + sg.sample_policies(scn, 4, rng, horizon, terminal=True)
        for policy in policies:
            assert_sample_spacing(scn, sg.integrate(scn, policy, horizon))

    @given(scn=scenarios(), horizon=st.floats(5.0, 60.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_generated_scenarios(self, scn, horizon, seed):
        rng = np.random.default_rng(seed)
        policies = [sg.Policy.zero(), sg.Policy.max_rate(scn.params.e_max)]
        policies += sg.sample_policies(scn, 2, rng, horizon) \
            + sg.sample_policies(scn, 2, rng, horizon, terminal=True)
        for policy in policies:
            assert_sample_spacing(scn, sg.integrate(scn, policy, horizon))
