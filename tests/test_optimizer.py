import collections
import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import standgrowth as sg
from standgrowth.optimizer import (_HOLD_CODE, _covers, _levels_to_policy, _screen_candidates,
                                   _screen_start, _tie_tol,
                                   canonical_policies)

from conftest import load, scenarios, window_horizon
from every_contender import every_contender_search, screen

SCENARIOS = ["concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
             "linear_growth.ini", "low_energy.ini"]


class TestProp2Conditions:
    def test_convex_price_selects_cut_first(self, convex_price):
        rep = sg.check_prop2(convex_price.scenario, convex_price.economics, 30.0)
        assert rep.branch == "E0Optimal"
        assert rep.alpha_margin > 0.1
        assert rep.discount_margin >= 0.0

    def test_concave_price_selects_ceiling_riding(self, concave_price):
        rep = sg.check_prop2(concave_price.scenario, concave_price.economics, 30.0)
        assert rep.branch == "EsupOptimal"
        assert rep.alpha_margin > 0.0

    def test_terminal_variant_selects_exact_target(self, concave_price):
        rep = sg.check_prop2(concave_price.scenario, concave_price.economics, 30.0,
                             terminal_n_min=True)
        assert rep.branch == "ETOptimal"

    def test_intermediate_price_no_claim(self, convex_price):
        econ = sg.EconomicModel(k=1.0, alpha=3.0, delta=0.0)
        rep = sg.check_prop2(convex_price.scenario, econ, 30.0)
        assert rep.branch is None
        assert rep.alpha_star is not None and 3.0 < rep.alpha_star

    def test_heavy_discount_defeats_conditions(self, concave_price):
        econ = dataclasses.replace(concave_price.economics, delta=0.5)
        rep = sg.check_prop2(concave_price.scenario, econ, 30.0)
        assert rep.branch is None

    def test_horizon_beyond_max_exit_rejected(self, convex_price):
        t_upper = sg.t_cap0(convex_price.scenario)
        with pytest.raises(ValueError):
            sg.check_prop2(convex_price.scenario, convex_price.economics,
                           t_upper + 1.0)

    # Whenever check_prop2 claims E0, no schedule may beat E0.  The search
    # beats it by 39.6 % at H = 5.38 (the winner is Esup itself), by 8.2 % at
    # 12 and by 2.35 % at 33, so the claim is unsound there; the xfails are
    # strict, so a sound check_prop2 turns them into failures to unmark.
    @pytest.mark.parametrize("horizon", [
        pytest.param(5.38, marks=pytest.mark.xfail(strict=True, reason="search beats E0")),
        pytest.param(12.0, marks=pytest.mark.xfail(strict=True, reason="search beats E0")),
        20.0,
        25.0,
        pytest.param(33.0, marks=pytest.mark.xfail(strict=True, reason="search beats E0")),
    ])
    def test_claimed_cut_first_is_never_beaten(self, convex_price, horizon):
        res = sg.brute_force(convex_price.scenario, convex_price.economics, horizon,
                             n_intervals=6)
        assert res.condition_report.branch == "E0Optimal"
        assert res.best_value <= res.canonical_values["E0"] * (1.0 + 1e-9)


class TestBruteForce:
    @pytest.mark.parametrize("excess", ["too_long", "nan", "inf", "zero", "negative"])
    def test_bad_horizon_rejected_before_screening(self, convex_price, monkeypatch, excess):
        horizon = {"too_long": sg.t_cap0(convex_price.scenario) + 1.0,
                   "nan": float("nan"), "inf": float("inf"), "zero": 0.0,
                   "negative": -5.0}[excess]

        def screen(*args, **kwargs):
            raise AssertionError("screened a candidate before checking the horizon")

        monkeypatch.setattr("standgrowth.optimizer._screen_candidates", screen)
        message = "maximal exit time" if excess == "too_long" else "finite and positive"
        with pytest.raises(ValueError, match=message):
            sg.brute_force(convex_price.scenario, convex_price.economics, horizon,
                           n_intervals=2)

    def test_small_search_beats_canonicals(self, convex_price):
        res = sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                             n_intervals=2)
        assert res.enumerated == 9
        for name, val in res.canonical_values.items():
            if val is not None:
                assert res.best_value >= val - 1e-9

    def test_two_level_single_interval_enumeration(self, convex_price):
        res = sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                             n_intervals=1, levels=("0", "max"))
        assert res.enumerated == 2

    def test_negligible_rate_degenerates_to_zero_policy(self, convex_price):
        scn = dataclasses.replace(
            convex_price.scenario,
            params=dataclasses.replace(convex_price.scenario.params, e_max=1e-9))
        res = sg.brute_force(scn, convex_price.economics, 5.0, n_intervals=2,
                             levels=("0", "max"))
        zero_val = res.canonical_values["Zero"]
        assert zero_val is not None
        assert res.best_value == pytest.approx(zero_val, rel=1e-9)
        assert abs(res.gap) <= 1e-9 * abs(res.best_value)

    def test_tie_with_a_canonical_policy_has_zero_gap(self, concave_price):
        # The best schedule ties the best canonical value to rounding here; the
        # raw difference is -2.3e-13, which would read as losing to it.
        res = sg.brute_force(concave_price.scenario, concave_price.economics,
                             concave_price.run.horizon, n_intervals=5)
        top = max(v for v in res.canonical_values.values() if v is not None)
        assert res.best_value == pytest.approx(top, rel=1e-12)
        assert res.gap == 0.0

    def test_candidate_superset_never_worse(self, convex_price):
        scn, econ = convex_price.scenario, convex_price.economics
        few = sg.brute_force(scn, econ, 30.0, n_intervals=2, levels=("0", "max"))
        more_levels = sg.brute_force(scn, econ, 30.0, n_intervals=2)
        more_intervals = sg.brute_force(scn, econ, 30.0, n_intervals=4,
                                        levels=("0", "max"))
        slack = 1e-9 * abs(few.best_value)
        assert more_levels.best_value >= few.best_value - slack
        assert more_intervals.best_value >= few.best_value - slack

    def test_terminal_constraint_selects_exact_target(self, concave_price):
        res = sg.brute_force(concave_price.scenario, concave_price.economics, 30.0,
                             n_intervals=4, terminal_n_min=True)
        assert res.best_policy.kind == "et"
        assert res.condition_report.branch == "ETOptimal"

    def test_candidates_csv(self, convex_price, tmp_path):
        path = tmp_path / "cands.csv"
        res = sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                             n_intervals=2, candidates_csv=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == res.enumerated + 1
        assert lines[0] == "candidate,levels,approx_value,feasible"
        # Growing freely under numeric levels breaks the ceiling: no value.
        rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
        assert rows["0|0"][2:] == ["", "0"]

    def test_result_serializes(self, convex_price):
        from standgrowth.dynamics import json_text
        res = sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                             n_intervals=2)
        payload = json.loads(json_text(res.to_json_dict()))
        assert payload["best_value"] == pytest.approx(res.best_value)
        assert payload["condition_report"]["branch"] == "E0Optimal"

    def test_hold_constant_and_string_are_one_level(self, convex_price):
        scn, econ = convex_price.scenario, convex_price.economics
        spelled = sg.brute_force(scn, econ, 30.0, n_intervals=3)
        constant = sg.brute_force(scn, econ, 30.0, n_intervals=3,
                                  levels=(sg.HOLD, "0", "max"))
        assert constant.to_json_dict() == spelled.to_json_dict()

    def test_interval_count_capped(self, convex_price):
        with pytest.raises(ValueError):
            sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                           n_intervals=11)

    def test_candidate_count_capped_before_screening(self, convex_price, monkeypatch):
        def screen(*args, **kwargs):
            raise AssertionError("screened a candidate before checking the count")

        monkeypatch.setattr("standgrowth.optimizer._screen_candidates", screen)
        with pytest.raises(ValueError, match="65536 candidates; the cap is 59049"):
            sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                           n_intervals=8, levels=("0", "20", "max", "hold"))

    @pytest.mark.parametrize("levels, message", [
        (("", ""), "must be a rate"), (("0", "Hold"), "must be a rate"),
        ((), "at least one level")])
    def test_malformed_levels_name_the_level_set(self, convex_price, levels, message):
        with pytest.raises(ValueError, match=message):
            sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                           n_intervals=2, levels=levels)

    def test_each_schedule_integrated_once(self, concave_price, monkeypatch):
        # The all-hold candidate is the Esup schedule; the re-score runs it
        # once, and its E0 and Esup runs are the references, so no schedule
        # is integrated twice and the references are not rebuilt.
        seen = []
        integrate = sg.integrate

        def counting(scenario, policy, *args, **kwargs):
            seen.append((policy.breakpoints, policy.levels))
            return integrate(scenario, policy, *args, **kwargs)

        def build(*args, **kwargs):
            raise AssertionError("the search rebuilt the references")

        monkeypatch.setattr("standgrowth.optimizer.integrate", counting)
        monkeypatch.setattr("standgrowth.analysis.integrate", counting)
        monkeypatch.setattr(sg.EnvelopeRefs, "build", build)
        scn, horizon = concave_price.scenario, 10.174
        sg.brute_force(scn, concave_price.economics, horizon, n_intervals=3)
        assert ((), (sg.HOLD,)) in seen
        assert len(seen) == len(set(seen))
        canon = canonical_policies(scn, horizon)
        for name in ("E0", "Esup"):
            assert seen.count((canon[name].breakpoints, canon[name].levels)) == 1, name

    def test_search_answers_when_esup_cannot_ride(self, concave_price):
        """Riding the ceiling from t_sup0 = 8.276 needs a rate of 10.71, above
        e_max = 8.5: Esup, ET and every riding schedule have no run, and
        Zero breaks the ceiling.  The other schedules still compete, and
        without a ceiling-riding reference the condition report claims
        nothing."""
        scn, econ = _with_e_max(concave_price.scenario, 8.5), concave_price.economics
        res = sg.brute_force(scn, econ, 30.0, n_intervals=5)
        values = res.canonical_values
        assert values["Esup"] is None and values["ET"] is None and values["Zero"] is None
        assert values["E0"] == pytest.approx(977.4848060447, rel=1e-9)
        assert res.condition_report.branch is None
        assert res.condition_report.xi_form is None
        assert res.best_value >= values["E0"]
        assert 0 < res.feasible < res.enumerated
        terminal = sg.brute_force(scn, econ, 30.0, n_intervals=5, terminal_n_min=True)
        assert terminal.best_value >= terminal.canonical_values["E0"]
        alone = sg.check_prop2(scn, econ, 30.0)
        assert alone.branch is None
        assert alone == res.condition_report

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("terminal", [False, True])
    def test_condition_report_matches_built_references(self, name, terminal):
        """The report from the search's own E0 and Esup runs equals
        :func:`check_prop2`'s, whose references are built apart at the same
        step (horizon/4096)."""
        loaded = load(name)
        scn, econ = loaded.scenario, loaded.economics
        for u in (0.1, 0.5, 0.9):
            horizon = window_horizon(scn, u)
            res = sg.brute_force(scn, econ, horizon, n_intervals=5,
                                 terminal_n_min=terminal)
            want = sg.check_prop2(scn, econ, horizon, terminal_n_min=terminal)
            assert res.condition_report.to_json_dict() == want.to_json_dict(), (u, horizon)

    def test_ceiling_times_cached_on_the_scenario(self, concave_price, low_energy,
                                                  monkeypatch):
        """t_sup0 and t_cap0 are the closed forms from the initial state, bit
        for bit, evaluated once per scenario object: the horizon checks, the
        canonical policies and the condition report of any number of searches
        share them, and a scenario with another initial state gets its own."""
        calls = collections.Counter()
        for name in ("t_sup0", "t_cap0"):
            prop = vars(sg.Scenario)[name]

            def counting(scenario, fn=prop.func, name=name):
                calls[name] += 1
                return fn(scenario)
            monkeypatch.setattr(prop, "func", counting)

        scn = dataclasses.replace(concave_price.scenario)   # a fresh cache
        init = scn.initial
        for _ in range(2):
            res = sg.brute_force(scn, concave_price.economics, 30.0, n_intervals=3)
            assert res.condition_report.branch == "EsupOptimal"
            assert calls == {"t_sup0": 1, "t_cap0": 1}
        assert scn.t_sup0 == scn.ceiling_time(0.0, init.s, init.n)
        assert scn.t_cap0 == scn.arc_exhaustion_time(scn.t_sup0, init.n)

        moved = dataclasses.replace(scn, initial=sg.StandState(0.0, 1.5 * init.s, init.n))
        assert moved.t_sup0 == moved.ceiling_time(0.0, moved.initial.s, init.n) < scn.t_sup0
        assert moved.t_cap0 == moved.arc_exhaustion_time(moved.t_sup0, init.n) < scn.t_cap0
        assert calls == {"t_sup0": 2, "t_cap0": 2}
        assert sg.is_unreachable(low_energy.scenario.t_cap0)


def _schedule(policy) -> tuple:
    return policy.breakpoints, policy.levels


class TestRescoreEachState:
    """The re-score integrates each screened state once; the reference
    (``every_contender.py``) integrated every contender."""

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("k", [5, 8])
    @pytest.mark.parametrize("terminal", [False, True])
    def test_matches_every_contender_rescore(self, name, k, terminal):
        loaded = load(name)
        scn, econ = loaded.scenario, loaded.economics
        for u in (0.1, 0.5, 0.9):
            horizon = window_horizon(scn, u)
            where = (u, horizon)
            best, canonical_values, contenders = every_contender_search(
                scn, econ, horizon, k, terminal_n_min=terminal)
            if best is None:
                with pytest.raises(sg.NoFeasiblePolicy):
                    sg.brute_force(scn, econ, horizon, n_intervals=k,
                                   terminal_n_min=terminal)
                continue
            res = sg.brute_force(scn, econ, horizon, n_intervals=k, terminal_n_min=terminal)
            assert res.canonical_values == canonical_values, where
            value, policy = best
            assert abs(res.best_value - value) <= _tie_tol(res.best_value, value), where
            if _schedule(res.best_policy) != _schedule(policy):
                # A flip between tied schedules of one screened state.
                _, values, n_end = screen(scn, econ, horizon, k, terminal)

                def states(pol):
                    return {(values[i], n_end[i]) for i, c in contenders.items()
                            if _schedule(c) == _schedule(pol)}
                assert states(res.best_policy) & states(policy), where

    def test_tied_state_reports_its_first_contender(self, concave_price):
        # [0, hold] with a switch at 6 and all-hold (Esup) are one screened
        # state; every contender's own run let rounding pick [0, hold].
        res = sg.brute_force(concave_price.scenario, concave_price.economics, 30.0,
                             n_intervals=5)
        assert res.best_policy.kind == "esup"

    def test_each_state_rescored_once(self, concave_price, monkeypatch):
        scn, econ, horizon = concave_price.scenario, concave_price.economics, 30.0
        _, values, n_end = screen(scn, econ, horizon, 5, False)
        _, _, contenders = every_contender_search(scn, econ, horizon, 5)
        # Max shares E0's run, so its schedule is never integrated.
        canon = {_schedule(pol) for name, pol in canonical_policies(scn, horizon).items()
                 if name != "Max"}
        # The first contender of each screened state, in enumeration order.
        firsts = {}
        for i, pol in sorted(contenders.items()):
            firsts.setdefault((values[i], n_end[i]), _schedule(pol))
        assert len(firsts) < len(contenders)

        seen = []
        integrate = sg.integrate

        def counting(scenario, policy, *args, **kwargs):
            seen.append(_schedule(policy))
            return integrate(scenario, policy, *args, **kwargs)

        monkeypatch.setattr("standgrowth.optimizer.integrate", counting)
        sg.brute_force(scn, econ, horizon, n_intervals=5)
        assert len(set(seen)) == len(seen)
        assert canon <= set(seen)
        assert set(seen) - canon == set(firsts.values()) - canon


def _joined_spans(traj) -> list:
    """The spans of ``traj`` with each run of one kind joined into one."""
    out = []
    for kind, start, end in traj.spans:
        if out and out[-1][0] == kind:
            out[-1][2] = end
        else:
            out.append([kind, start, end])
    return out


def _assert_max_runs_as_e0(scn, econ, horizon: float, step: float | None = None) -> None:
    """``integrate`` gives Max (e_max throughout, clamped at n_min) the
    dynamics of E0 (e_max up to the time n_min is reached, then 0), which
    is why the re-score gives Max E0's run: the same span kinds, span times
    within 1e-12 and objectives within 1e-11.  Spans of one kind are
    joined: E0's breakpoint can split its free growth, where its cut is
    spent at a grid time just before the breakpoint (8.3e-13 before it on
    one generated draw at H/16384)."""
    runs = [sg.integrate(scn, sg.build_policy(scn, kind), horizon, step)
            for kind in ("max", "e0")]
    kinds, times = zip(*(([kind for kind, _, _ in spans],
                          np.array([span[1:] for span in spans]).reshape(-1, 2))
                         for spans in map(_joined_spans, runs)))
    assert kinds[0] == kinds[1]
    np.testing.assert_allclose(times[0], times[1], rtol=1e-12, atol=1e-12)
    assert runs[0].exited == runs[1].exited
    values = [sg.objective(scn, econ, run) for run in runs]
    assert values[0] == pytest.approx(values[1], rel=1e-11, abs=0.0)


def _short_cut_stand():
    """A linear-growth stand that e_max cuts to n_min in 0.33 of H = 34,
    40 steps of the default grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy("exponential", 4.0, 0.0)
    return sg.Scenario(
        params=sg.StandParams(q=1.25, A=0.025969527949490395, n_min=100.0,
                              e_max=76.37599852351025, t_star=150.0),
        growth=sg.GrowthFunction.linear(),
        env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=0.12274798603273468, n=125.0))


class TestMaxRunsAsE0:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_scenarios(self, name):
        loaded = load(name)
        scn = loaded.scenario
        for horizon in (loaded.run.horizon, window_horizon(scn, 0.1), window_horizon(scn, 0.9)):
            _assert_max_runs_as_e0(scn, loaded.economics, horizon)

    @given(scn=scenarios(), horizon=st.floats(5.0, 60.0))
    @example(scn=_short_cut_stand(), horizon=34.0)
    @settings(max_examples=30, deadline=None)
    def test_generated_scenarios(self, scn, horizon):
        """At a step of H/16384.  The two runs sample their cut on different
        grids (E0's ends at its breakpoint, Max's mid-step), so at the
        default step their objectives differ by the Simpson error of those
        grids: 1.3e-11 relative on :func:`_short_cut_stand`, and 1.5e-14 at
        this step."""
        _assert_max_runs_as_e0(scn, sg.EconomicModel(k=1.0, alpha=2.0, delta=0.01), horizon,
                               horizon / 16384)

    def test_search_gives_max_the_e0_value(self, convex_price):
        result = sg.brute_force(convex_price.scenario, convex_price.economics, 30.0,
                                n_intervals=3)
        assert result.canonical_values["Max"] == result.canonical_values["E0"]


def _fine_objective(loaded, codes: np.ndarray, horizon: float, steps: int) -> float:
    scn = loaded.scenario
    policy = _levels_to_policy(codes, horizon, len(codes))
    traj = sg.integrate(scn, policy, horizon, step=horizon / steps)
    return sg.objective(scn, loaded.economics, traj)


class TestScreen:
    """The screen's by-parts values against the exact objective."""

    @pytest.mark.parametrize("name", ["concave_price_power.ini", "convex_price_power.ini",
                                      "fagacees.ini", "linear_growth.ini", "low_energy.ini"])
    def test_top_candidates_match_fine_objective(self, name):
        loaded = load(name)
        scn, econ = loaded.scenario, loaded.economics
        p = scn.params
        t0n = sg.time_to_count(p, scn.initial.n, p.n_min)
        t_upper = sg.t_cap0(scn)
        t_upper = p.t_star if sg.is_unreachable(t_upper) else min(t_upper, p.t_star)
        codes = np.array((_HOLD_CODE, 0.0, p.e_max))
        matrix = np.array(list(itertools.product(codes, repeat=8)))
        for u in (0.25, 0.5, 0.75):
            horizon = t0n + u * (t_upper - t0n)
            values = _screen_candidates(scn, econ, horizon, codes, 8)[0]
            top = [i for i in np.argsort(-values, kind="stable")[:8] if np.isfinite(values[i])]
            assert len(top) == 8
            for i in top:
                fine = _fine_objective(loaded, matrix[i], horizon, 4096)
                assert values[i] == pytest.approx(fine, rel=1e-5), (horizon, matrix[i])

    @pytest.mark.parametrize("horizon, row, event", [
        (10.174, "hhhhhhhh", "RdiHitOne"),     # crosses the ceiling, then rides it
        (29.0, "mhhhhhhh", "ExitPoint"),       # rides the ceiling down to the exit corner
        (20.0, "hhhhhhhm", "NMinHit"),         # the last cut reaches n_min mid-step
    ])
    def test_higher_order_in_the_step(self, concave_price, horizon, row, event):
        """Each piece follows its events exactly and takes Gregory's rule,
        so a 4x finer grid cuts the error at least 16x (the per-step
        trapezoid, with the step reaching n_min run linearly to it, cut it
        13x and 8.4x on the last two), and the default grid is within 5e-8
        of a run at H/16384."""
        scn, econ = concave_price.scenario, concave_price.economics
        level_set = np.array((_HOLD_CODE, scn.params.e_max))
        digits = ["hm".index(c) for c in row]
        codes = level_set[digits]
        policy = _levels_to_policy(codes, horizon, len(codes))
        assert event in [ev.kind for ev in sg.integrate(scn, policy, horizon).events]
        exact = _fine_objective(concave_price, codes, horizon, 16384)
        i = np.ravel_multi_index(digits, (level_set.size,) * len(row))

        def err(*steps_total):
            values = _screen_candidates(scn, econ, horizon, level_set, len(row), *steps_total)[0]
            return abs(values[i] - exact) / abs(exact)

        assert err(1024) <= err(256) / 16.0
        assert err() <= 5e-8

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_uncut_schedule_is_its_clear_cut(self, name):
        """An uncut piece is summed as n [P(s, t)] between its ends, and
        P(s, 0) = 0 as h0(0) = 0, so a schedule that never cuts nor reaches
        the ceiling screens to n0 P(s(T), T): exactly over one segment, and
        to rounding over eight, as each segment's closed form starts from
        the state that ends the one before."""
        loaded = load(name)
        scn, econ = loaded.scenario, loaded.economics
        horizon = min(0.5 * scn.t_sup0, loaded.run.horizon)
        for k in (1, 8):
            end = _screen_start(scn, econ, horizon, k, 256)[0][-1]
            s_end = scn.uncut_s_after(scn.initial.s, scn.initial.n,
                                      scn.env.v.integral(0.0, end))
            want = scn.initial.n * sg.price(econ, scn.env, s_end, end)
            value = _screen_candidates(scn, econ, horizon, np.array([0.0]), k)[0][0]
            if k == 1:
                assert value == want
            else:
                assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_ceiling_ride_above_e_max_is_dead(self, concave_price):
        """Riding the ceiling from t_sup0 = 8.276 needs a rate of 10.71, so the
        schedules that ride it are infeasible, as ``integrate`` finds."""
        scn = _with_e_max(concave_price.scenario, 8.5)
        codes = np.array((_HOLD_CODE, 0.0, 8.5))
        values, feasible, _ = _screen_candidates(scn, concave_price.economics, 30.0, codes, 2)
        for i, row in enumerate(itertools.product(codes, repeat=2)):
            policy = _levels_to_policy(np.array(row), 30.0, 2)
            try:
                covers = _covers(sg.integrate(scn, policy, 30.0), 30.0)
            except sg.InfeasibleBoundary:
                covers = False
            assert feasible[i] == covers == np.isfinite(values[i]), row
        assert not feasible[0]                  # all-hold, which is Esup


def _with_e_max(scenario, e_max: float):
    return dataclasses.replace(scenario, params=dataclasses.replace(scenario.params,
                                                                    e_max=e_max))


class TestCompareCanonicals:
    def test_infeasible_ride_reported_as_none(self, concave_price):
        scn = _with_e_max(concave_price.scenario, 8.5)
        cmp = sg.compare_canonicals(scn, concave_price.economics, 30.0)
        assert cmp.values["Esup"] is None
        assert cmp.values["E0"] is not None and cmp.dominant == "E0"

    def test_nan_horizon_rejected(self, convex_price):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            sg.compare_canonicals(convex_price.scenario, convex_price.economics,
                                  float("nan"))

    def test_convex_price_cut_first_dominates(self, convex_price):
        cmp = sg.compare_canonicals(convex_price.scenario, convex_price.economics, 30.0)
        assert cmp.cut_first_dominates
        assert cmp.values["E0"] > cmp.values["Esup"]
        assert cmp.values["Zero"] is None   # stalls at the density ceiling

    def test_concave_price_ceiling_riding_dominates(self, concave_price):
        cmp = sg.compare_canonicals(concave_price.scenario, concave_price.economics,
                                    30.0)
        assert not cmp.cut_first_dominates
        assert cmp.dominant == "Esup"
        assert cmp.values["Esup"] > cmp.values["E0"]

    def test_margins_relative_to_cut_first(self, convex_price):
        cmp = sg.compare_canonicals(convex_price.scenario, convex_price.economics, 30.0)
        e0 = cmp.values["E0"]
        # Max is the cut-first schedule (clamp at n_min) and shares its run,
        # so its margin is 0.
        assert cmp.margins["Max"] == 0.0
        assert all(m >= -1e-12 * abs(e0) for m in cmp.margins.values())
        assert cmp.margins["Esup"] > 0.0

    @pytest.mark.parametrize("name", ["convex_price_power.ini", "concave_price_power.ini"])
    def test_search_values_give_the_same_comparison(self, name):
        """A search's canonical values, run at the same fine step, compare
        as ``compare_canonicals`` does."""
        loaded = load(name)
        scn, econ = loaded.scenario, loaded.economics
        result = sg.brute_force(scn, econ, 30.0, n_intervals=2)
        assert (sg.CanonicalComparison.from_values(result.canonical_values)
                == sg.compare_canonicals(scn, econ, 30.0))
